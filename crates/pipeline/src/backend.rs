//! Pluggable alignment backends.
//!
//! The dispatch stage hands each scheduled batch to a [`Backend`]; the
//! trait is the seam where the GenASM CPU engine, the simulated GPU,
//! and the baseline aligners all plug in. The service runs one
//! dispatcher per thread, so the CPU backends align a batch *on the
//! calling thread*, in task order, with no fork/join of their own:
//! parallelism comes from the dispatchers running batches side by
//! side. Each thread keeps one [`genasm_core::AlignWorkspace`] for its
//! whole lifetime (a thread-local), so the hot path stays
//! allocation-free across batches. Backends must be pure: the
//! alignment of a task depends only on that task, never on batch
//! composition — that is what makes pipeline output independent of
//! batch geometry.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use align_core::{AlignTask, Alignment, ReusableAligner};
use baselines::{Ksw2Aligner, MyersAligner};
use genasm_core::{AlignWorkspace, MemStats};
use genasm_cpu::CpuBatchAligner;
use genasm_gpu::GpuAligner;
use gpu_sim::Device;

thread_local! {
    /// This thread's GenASM scratch state, reused by every CPU backend
    /// batch the thread runs, for the thread's lifetime.
    static WORKSPACE: RefCell<AlignWorkspace> = RefCell::new(AlignWorkspace::new());
}

/// A batch alignment engine the dispatch stage can drive.
pub trait Backend: Send + Sync {
    /// Short name used in reports and errors.
    fn name(&self) -> &'static str;

    /// Align every task; entry `i` is the alignment of `tasks[i]` or
    /// `None` when the task exceeded the aligner's edit budget.
    fn align_batch(&self, tasks: &[AlignTask]) -> Result<Vec<Option<Alignment>>, BackendError>;

    /// Engine instrumentation accumulated across every batch this
    /// backend instance has aligned so far (cumulative, like the other
    /// pipeline counters), if the backend collects any, surfaced in
    /// [`crate::PipelineMetrics`]. The one-shot pipeline pulls this
    /// after the dispatch stages join; the resident service may call
    /// it *at any moment of a live run*
    /// ([`crate::PipelineService::metrics`] merges it across
    /// backends), so implementations must be **batch-atomic**: stats
    /// are merged into the accumulator under a lock, once per
    /// completed batch, and a concurrent reader sees either all of a
    /// batch's counts or none of them — never a partial merge. Two
    /// consecutive snapshots are therefore field-by-field monotonic
    /// (including `peak_band_rows`, a max-merged high-water mark,
    /// which is non-decreasing). Backends without GenASM-style
    /// counters (the baselines) return `None`.
    fn engine_stats(&self) -> Option<MemStats> {
        None
    }
}

/// A backend failed in a way that poisons the whole batch.
#[derive(Debug, Clone)]
pub struct BackendError {
    /// Which backend failed.
    pub backend: &'static str,
    /// What went wrong.
    pub reason: String,
}

impl core::fmt::Display for BackendError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "backend {}: {}", self.backend, self.reason)
    }
}

impl std::error::Error for BackendError {}

/// The GenASM CPU engine: aligns a batch on the calling thread with
/// that thread's reused workspace (allocation-free hot path).
pub struct CpuBackend {
    aligner: CpuBatchAligner,
    name: &'static str,
    stats: Mutex<MemStats>,
}

impl CpuBackend {
    /// Improved GenASM (the paper's contribution).
    pub fn improved() -> CpuBackend {
        CpuBackend {
            aligner: CpuBatchAligner::improved(),
            name: "cpu",
            stats: Mutex::new(MemStats::new()),
        }
    }

    /// Unimproved GenASM (Senol Cali et al. 2020).
    pub fn baseline() -> CpuBackend {
        CpuBackend {
            aligner: CpuBatchAligner::baseline(),
            name: "cpu-base",
            stats: Mutex::new(MemStats::new()),
        }
    }
}

impl Backend for CpuBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn align_batch(&self, tasks: &[AlignTask]) -> Result<Vec<Option<Alignment>>, BackendError> {
        let cfg = &self.aligner.cfg;
        cfg.validate();
        let mut stats = MemStats::new();
        let alignments = WORKSPACE.with_borrow_mut(|ws| {
            tasks
                .iter()
                .map(|t| {
                    // The mapper's per-task edit bound caps each
                    // window's error-row sweep; too-tight bounds fall
                    // back to a full-budget rescue inside the hinted
                    // driver, so the result never depends on the hint.
                    let hint = t.max_edits.map(|e| e as usize);
                    let a = genasm_core::align_with_workspace_hinted(
                        &t.query, &t.target, cfg, hint, ws,
                    )
                    .ok();
                    stats.merge(&ws.take_stats());
                    a
                })
                .collect()
        });
        self.stats
            .lock()
            .expect("stats mutex poisoned")
            .merge(&stats);
        Ok(alignments)
    }

    fn engine_stats(&self) -> Option<MemStats> {
        Some(*self.stats.lock().expect("stats mutex poisoned"))
    }
}

/// The simulated-GPU GenASM kernel (one block per task).
pub struct GpuSimBackend {
    gpu: GpuAligner,
    stats: Mutex<MemStats>,
}

impl GpuSimBackend {
    /// Improved kernel on the paper's RTX A6000 model.
    pub fn a6000() -> GpuSimBackend {
        GpuSimBackend {
            gpu: GpuAligner::improved(Device::a6000()),
            stats: Mutex::new(MemStats::new()),
        }
    }

    /// Any configured GPU aligner.
    pub fn new(gpu: GpuAligner) -> GpuSimBackend {
        GpuSimBackend {
            gpu,
            stats: Mutex::new(MemStats::new()),
        }
    }

    /// Fold per-task kernel outputs into the window/band counters the
    /// kernel reports (a subset of the CPU engine's instrumentation).
    fn absorb(&self, results: &[genasm_gpu::GpuAlignment]) {
        let mut s = self.stats.lock().expect("stats mutex poisoned");
        for r in results {
            s.windows += r.windows as u64;
            s.rows_computed += r.rows_computed;
            s.windows_rescued += r.rescued as u64;
        }
    }
}

impl Backend for GpuSimBackend {
    fn name(&self) -> &'static str {
        "gpu-sim"
    }

    fn align_batch(&self, tasks: &[AlignTask]) -> Result<Vec<Option<Alignment>>, BackendError> {
        match self.gpu.align_batch(tasks) {
            Ok(report) => {
                self.absorb(&report.results);
                Ok(report
                    .results
                    .into_iter()
                    .map(|r| Some(r.alignment))
                    .collect())
            }
            // A data-dependent failure (edit budget exhausted) poisons
            // the whole simulated launch; retry task-by-task so the
            // Backend contract holds — only the offending tasks become
            // `None`, matching the CPU backend. Unreachable with the
            // default `k = W` configuration, so the retry never costs
            // anything in the shipped backends.
            Err(gpu_sim::SimError::KernelFailed { .. }) => tasks
                .iter()
                .map(|t| match self.gpu.align_batch(core::slice::from_ref(t)) {
                    Ok(report) => {
                        self.absorb(&report.results);
                        Ok(report.results.into_iter().next().map(|r| r.alignment))
                    }
                    Err(gpu_sim::SimError::KernelFailed { .. }) => Ok(None),
                    Err(e) => Err(BackendError {
                        backend: "gpu-sim",
                        reason: e.to_string(),
                    }),
                })
                .collect(),
            Err(e) => Err(BackendError {
                backend: "gpu-sim",
                reason: e.to_string(),
            }),
        }
    }

    fn engine_stats(&self) -> Option<MemStats> {
        Some(*self.stats.lock().expect("stats mutex poisoned"))
    }
}

/// Align `tasks` in order on the calling thread, one workspace reused
/// across the batch (the baselines' workspaces are empty, so there is
/// nothing to keep between batches).
fn align_in_order<A: ReusableAligner>(aligner: &A, tasks: &[AlignTask]) -> Vec<Option<Alignment>> {
    let mut ws = A::Workspace::default();
    tasks
        .iter()
        .map(|t| aligner.align_reusing(&mut ws, &t.query, &t.target).ok())
        .collect()
}

/// Myers' bit-parallel exact aligner (the Edlib baseline).
pub struct EdlibBackend {
    aligner: MyersAligner,
}

impl EdlibBackend {
    /// Fresh baseline aligner.
    pub fn new() -> EdlibBackend {
        EdlibBackend {
            aligner: MyersAligner::new(),
        }
    }
}

impl Default for EdlibBackend {
    fn default() -> EdlibBackend {
        EdlibBackend::new()
    }
}

impl Backend for EdlibBackend {
    fn name(&self) -> &'static str {
        "edlib"
    }

    fn align_batch(&self, tasks: &[AlignTask]) -> Result<Vec<Option<Alignment>>, BackendError> {
        Ok(align_in_order(&self.aligner, tasks))
    }
}

/// The KSW2-style quadratic DP baseline.
pub struct Ksw2Backend {
    aligner: Ksw2Aligner,
}

impl Ksw2Backend {
    /// Fresh baseline aligner.
    pub fn new() -> Ksw2Backend {
        Ksw2Backend {
            aligner: Ksw2Aligner::new(),
        }
    }
}

impl Default for Ksw2Backend {
    fn default() -> Ksw2Backend {
        Ksw2Backend::new()
    }
}

impl Backend for Ksw2Backend {
    fn name(&self) -> &'static str {
        "ksw2"
    }

    fn align_batch(&self, tasks: &[AlignTask]) -> Result<Vec<Option<Alignment>>, BackendError> {
        Ok(align_in_order(&self.aligner, tasks))
    }
}

/// The selectable backends, mirroring the CLI `--backend` choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// GenASM on the CPU engine.
    Cpu,
    /// GenASM on the simulated GPU.
    GpuSim,
    /// Myers/Edlib exact baseline.
    Edlib,
    /// KSW2 quadratic DP baseline.
    Ksw2,
}

impl BackendKind {
    /// Every kind with its CLI name.
    pub const ALL: [(BackendKind, &'static str); 4] = [
        (BackendKind::Cpu, "cpu"),
        (BackendKind::GpuSim, "gpu-sim"),
        (BackendKind::Edlib, "edlib"),
        (BackendKind::Ksw2, "ksw2"),
    ];

    /// Instantiate the backend.
    pub fn create(&self) -> Arc<dyn Backend> {
        match self {
            BackendKind::Cpu => Arc::new(CpuBackend::improved()),
            BackendKind::GpuSim => Arc::new(GpuSimBackend::a6000()),
            BackendKind::Edlib => Arc::new(EdlibBackend::new()),
            BackendKind::Ksw2 => Arc::new(Ksw2Backend::new()),
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = ParseBackendError;

    fn from_str(s: &str) -> Result<BackendKind, ParseBackendError> {
        BackendKind::ALL
            .iter()
            .find(|(_, name)| *name == s)
            .map(|&(kind, _)| kind)
            .ok_or_else(|| ParseBackendError {
                given: s.to_string(),
            })
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (_, name) = BackendKind::ALL
            .iter()
            .find(|(kind, _)| kind == self)
            .expect("every kind is in BackendKind::ALL");
        f.write_str(name)
    }
}

/// Error for an unrecognized backend name; lists the valid ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError {
    /// What the user typed.
    pub given: String,
}

impl std::fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown backend '{}'; valid backends are ", self.given)?;
        for (i, (_, name)) in BackendKind::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "'{name}'")?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseBackendError {}

#[cfg(test)]
mod tests {
    use super::*;
    use align_core::Seq;

    fn task(q: &str, t: &str) -> AlignTask {
        AlignTask::new(
            0,
            0,
            Seq::from_ascii(q.as_bytes()).unwrap(),
            Seq::from_ascii(t.as_bytes()).unwrap(),
        )
    }

    #[test]
    fn every_backend_aligns_and_validates() {
        let tasks = vec![
            task("ACGTACGTACGTACGT", "ACGTACCTACGTACGT"),
            task("ACGTACGTACGTACGT", "ACGTACGTACGTACGT"),
        ];
        for (kind, name) in BackendKind::ALL {
            let backend = kind.create();
            assert_eq!(backend.name(), name);
            let out = backend.align_batch(&tasks).unwrap();
            assert_eq!(out.len(), 2);
            for (t, a) in tasks.iter().zip(&out) {
                let a = a.as_ref().unwrap_or_else(|| panic!("{name} rejected"));
                a.check(&t.query, &t.target).unwrap();
            }
            assert_eq!(out[1].as_ref().unwrap().edit_distance, 0);
        }
    }

    #[test]
    fn kind_round_trips_through_strings() {
        for (kind, name) in BackendKind::ALL {
            assert_eq!(name.parse::<BackendKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), name);
        }
    }

    #[test]
    fn unknown_backend_lists_choices() {
        let err = "cuda".parse::<BackendKind>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("'cuda'"), "{msg}");
        for (_, name) in BackendKind::ALL {
            assert!(msg.contains(name), "missing {name} in {msg}");
        }
    }

    #[test]
    fn gpu_budget_exhaustion_yields_none_not_batch_poisoning() {
        // k = 2 makes the all-mismatch task impossible; the good task
        // in the same batch must still align (per-task None contract).
        let mut cfg = genasm_core::GenAsmConfig::improved();
        cfg.k = 2;
        let backend = GpuSimBackend::new(GpuAligner::with_config(Device::a6000(), cfg));
        let tasks = vec![
            task("ACGTACGTAC", "ACGTACGTAC"),
            task("AAAAAAAAAA", "TTTTTTTTTT"),
        ];
        let out = backend.align_batch(&tasks).unwrap();
        assert_eq!(out[0].as_ref().unwrap().edit_distance, 0);
        assert!(out[1].is_none(), "impossible task must be None");
    }

    #[test]
    fn cpu_baseline_has_distinct_name() {
        assert_eq!(CpuBackend::baseline().name(), "cpu-base");
        let out = CpuBackend::baseline()
            .align_batch(&[task("ACGT", "ACGT")])
            .unwrap();
        assert_eq!(out[0].as_ref().unwrap().edit_distance, 0);
    }
}
