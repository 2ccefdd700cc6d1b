//! Counting-allocator proof that a CPU backend keeps its engine
//! workspace across batches: a thread that runs batch after batch
//! allocates only the returned alignments, never per window.
//!
//! The count is per thread (the backend aligns on the calling thread),
//! so tests running concurrently in this binary never see each other's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use align_core::{AlignTask, Base, Seq};
use genasm_pipeline::{Backend, CpuBackend};

struct CountingAlloc;

thread_local! {
    // `const` initialization: counting never allocates or recurses.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Multi-window tasks (~12 windows each) with a few substitutions,
/// so every window does real work.
fn batch(tasks: usize) -> Vec<AlignTask> {
    (0..tasks)
        .map(|i| {
            let q: Seq = (0..512)
                .map(|j| Base::from_code(((j + i) % 4) as u8))
                .collect();
            let mut bases: Vec<Base> = q.iter().collect();
            for pos in [37 + i, 120, 260 + 2 * i, 411, 500] {
                bases[pos] = Base::from_code((bases[pos].code() + 2) % 4);
            }
            AlignTask::new(i as u32, 0, q, bases.into_iter().collect())
        })
        .collect()
}

#[test]
fn cpu_backend_reuses_its_workspace_across_batches() {
    // One task per batch: a workspace built per batch would show up
    // in full on every batch instead of amortizing over its tasks.
    const TASKS: usize = 1;
    const BATCHES: u64 = 50;
    let tasks = batch(TASKS);
    for backend in [CpuBackend::improved(), CpuBackend::baseline()] {
        // Warm up: the thread's workspace grows to its high-water mark.
        backend.align_batch(&tasks).unwrap();
        let windows_before = backend.engine_stats().unwrap().windows;

        let before = allocations();
        for _ in 0..BATCHES {
            let out = backend.align_batch(&tasks).unwrap();
            assert!(out.iter().all(Option::is_some));
        }
        let per_task = (allocations() - before) as f64 / (BATCHES * TASKS as u64) as f64;
        let windows = backend.engine_stats().unwrap().windows - windows_before;
        let windows_per_task = windows as f64 / (BATCHES * TASKS as u64) as f64;
        assert!(
            windows_per_task >= 10.0,
            "want multi-window tasks, got {windows_per_task:.1}"
        );
        // What is left is the result vector and the returned
        // alignment's CIGAR: a handful per task, independent of the
        // ~12 windows. A workspace built per batch costs ~14.
        assert!(
            per_task <= 8.0,
            "{}: {per_task:.1} allocations per task over {windows_per_task:.1} windows \
             — the workspace is not being reused across batches",
            backend.name()
        );
    }
}
