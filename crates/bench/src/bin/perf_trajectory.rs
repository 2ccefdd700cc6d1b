//! Pinned perf-trajectory benchmark for CI.
//!
//! Runs one short, fully pinned `pipeline_throughput`-style
//! configuration (deterministic multi-contig workload, fixed pipeline
//! geometry) through every backend and writes `BENCH_pipeline.json`:
//! reads/s, aligned query bases/s, record counts, and the peak
//! resident task bases per backend, plus the shard-local reference
//! residency. CI uploads the file as an artifact on every push, so the
//! numbers accumulate into a throughput trajectory over the
//! repository's history, and `scripts/perf_gate.py` compares each
//! backend's reads/s with a baseline.
//!
//! Usage: `perf-trajectory [OUTPUT_PATH]` (default
//! `BENCH_pipeline.json`).

use std::fmt::Write as _;
use std::time::Instant;

use align_core::Reference;
use genasm_pipeline::{run_pipeline, BackendKind, PipelineConfig, ReadInput};
use mapper::CandidateParams;
use readsim::{contig_lengths, simulate_reads, ErrorModel, Genome, GenomeConfig, ReadConfig};

/// Everything about the workload and geometry is pinned: two runs of
/// this binary on the same machine measure the same work.
const GENOME_LEN: usize = 150_000;
const CONTIGS: usize = 3;
const READS: usize = 24;
const READ_LEN: usize = 1_000;
const SEED: u64 = 99;
const BATCH_BASES: usize = 64 * 1024;
const QUEUE_DEPTH: usize = 8;
const SHARDS: usize = 4;

fn workload() -> (Reference, Vec<(String, align_core::Seq)>) {
    let lens = contig_lengths(GENOME_LEN, CONTIGS);
    let mut reference = Reference::new();
    let mut reads = Vec::new();
    for (ci, &len) in lens.iter().enumerate() {
        let genome = Genome::generate(&GenomeConfig::human_like(len, SEED + ci as u64));
        reference.push(&format!("chr{}", ci + 1), genome.seq.clone());
        for (i, r) in simulate_reads(
            &genome,
            &ReadConfig {
                count: READS / CONTIGS,
                length: READ_LEN,
                errors: ErrorModel::pacbio_clr(0.08),
                rc_fraction: 0.5,
                seed: SEED ^ (ci as u64) << 8,
            },
        )
        .into_iter()
        .enumerate()
        {
            reads.push((format!("c{ci}r{i}"), r.seq));
        }
    }
    (reference, reads)
}

struct BackendRow {
    name: &'static str,
    wall_s: f64,
    reads_per_sec: f64,
    query_bases_per_sec: f64,
    records: u64,
    peak_resident_task_bases: u64,
    resident_reference_bytes: usize,
    /// Window-engine counters (band sweep, early termination, rescues)
    /// for backends that expose them; baselines report `None`.
    engine: Option<genasm_core::MemStats>,
    /// Per-read end-to-end latency percentiles (ns), from the
    /// telemetry registry's log-bucketed histogram (quantiles are
    /// bucket upper bounds, ≤2× error).
    read_latency: genasm_pipeline::HistogramSnapshot,
    /// Task-queue wait percentiles (ns): time tasks sat in the shared
    /// bounded queue before a batch builder picked them up.
    task_queue_wait: genasm_pipeline::HistogramSnapshot,
}

fn pinned_cfg() -> PipelineConfig {
    PipelineConfig {
        batch_bases: BATCH_BASES,
        queue_depth: QUEUE_DEPTH,
        // One engine worker per core: the CPU backends align each
        // batch on its worker's thread.
        dispatchers: genasm_pipeline::available_threads(),
        shards: SHARDS,
        shard_overlap: 256,
        params: CandidateParams::default(),
        trace: None,
        explain: None,
    }
}

fn run_backend(
    kind: BackendKind,
    name: &'static str,
    reference: &Reference,
    reads: &[(String, align_core::Seq)],
) -> Result<BackendRow, String> {
    let cfg = pinned_cfg();
    // A fresh backend per pass keeps the cumulative window-engine
    // counters scoped to exactly one workload traversal.
    let run = |backend: std::sync::Arc<dyn genasm_pipeline::Backend>| {
        let stream = reads.iter().map(|(n, s)| {
            Ok::<_, std::convert::Infallible>(ReadInput {
                name: n.clone(),
                seq: s.clone(),
            })
        });
        run_pipeline(stream, reference.clone(), backend, &cfg, |_| Ok(()))
            .map_err(|e| format!("backend {name}: {e}"))
    };
    run(kind.create())?; // warm-up: allocators, thread pools, branch caches
    let backend = kind.create();
    let t0 = Instant::now();
    let metrics = run(backend)?;
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    Ok(BackendRow {
        name,
        wall_s: wall,
        reads_per_sec: metrics.reads_in as f64 / wall,
        query_bases_per_sec: metrics.query_bases as f64 / wall,
        records: metrics.records_out,
        peak_resident_task_bases: metrics.max_inflight_bases,
        resident_reference_bytes: metrics.shard_index.reference_bytes,
        engine: metrics.engine,
        read_latency: metrics.read_latency.clone(),
        task_queue_wait: metrics.task_queue_wait.clone(),
    })
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    let (reference, reads) = workload();
    let total_len = reference.total_len();

    let mut rows = Vec::new();
    for (kind, name) in BackendKind::ALL {
        match run_backend(kind, name, &reference, &reads) {
            Ok(row) => {
                eprintln!(
                    "perf-trajectory: {name}: {:.0} reads/s, {:.0} query bases/s, \
                     peak {} resident task bases",
                    row.reads_per_sec, row.query_bases_per_sec, row.peak_resident_task_bases
                );
                rows.push(row);
            }
            Err(e) => {
                eprintln!("perf-trajectory: FAILED: {e}");
                std::process::exit(1);
            }
        }
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"genasm-bench-pipeline/v5\",");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"genome_len\": {GENOME_LEN}, \"contigs\": {CONTIGS}, \
         \"total_len\": {total_len}, \"reads\": {}, \"read_len\": {READ_LEN}, \
         \"seed\": {SEED}}},",
        reads.len()
    );
    let _ = writeln!(
        json,
        "  \"config\": {{\"batch_bases\": {BATCH_BASES}, \"queue_depth\": {QUEUE_DEPTH}, \
         \"shards\": {SHARDS}, \"dispatchers\": {}}},",
        pinned_cfg().dispatchers
    );
    let _ = writeln!(json, "  \"backends\": {{");
    for (i, r) in rows.iter().enumerate() {
        // Window-engine counters ride along per backend so the band
        // sweep's effect (rows swept, cells skipped, rescues) is part
        // of the archived trajectory, not just wall-clock.
        let engine = match &r.engine {
            Some(e) => format!(
                "{{\"windows\": {}, \"rows_computed\": {}, \
                 \"windows_early_terminated\": {}, \"windows_rescued\": {}, \
                 \"band_cells_skipped\": {}, \"peak_band_rows\": {}}}",
                e.windows,
                e.rows_computed,
                e.windows_early_terminated,
                e.windows_rescued,
                e.band_cells_skipped,
                e.peak_band_rows
            ),
            None => "null".to_string(),
        };
        // v3: latency percentiles from the telemetry histograms.
        // Quantiles are power-of-two bucket upper bounds, so they are
        // stable run-to-run on the same hardware class even though
        // exact nanosecond values jitter.
        let latency = format!(
            "{{\"read_p50_ns\": {}, \"read_p90_ns\": {}, \"read_p99_ns\": {}, \
             \"task_queue_wait_p99_ns\": {}}}",
            r.read_latency.p50(),
            r.read_latency.p90(),
            r.read_latency.p99(),
            r.task_queue_wait.p99()
        );
        let _ = writeln!(
            json,
            "    \"{}\": {{\"wall_s\": {:.6}, \"reads_per_sec\": {:.2}, \
             \"query_bases_per_sec\": {:.2}, \"records\": {}, \
             \"peak_resident_task_bases\": {}, \"resident_reference_bytes\": {}, \
             \"window_engine\": {}, \"latency\": {}}}{}",
            r.name,
            r.wall_s,
            r.reads_per_sec,
            r.query_bases_per_sec,
            r.records,
            r.peak_resident_task_bases,
            r.resident_reference_bytes,
            engine,
            latency,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("perf-trajectory: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("{json}");
    eprintln!("perf-trajectory: wrote {out_path}");
}
