//! # genasm-pipeline
//!
//! A streaming, multi-backend alignment pipeline with **one** stage
//! core — the resident [`service::PipelineService`]:
//!
//! ```text
//!  session(s) ──► candidate generation ──► batch scheduler ──► dispatchers ──► ordered sink
//!  (submit)       (sharded index fan-out    (one building      (N threads,     (global reorder,
//!                  ┌► shard 0 ─┐             batch per          the session's   per-session rows)
//!                  ├► shard …  ├─ merge)     backend)           Backend)
//!                  └► shard S ─┘                 │                  │
//!                     │                          ▼             result queue
//!                 task queue                batch queue         (bounded)
//!                (bounded, weighted          (bounded)
//!                 by bases)
//! ```
//!
//! [`run_pipeline`] — the one-shot batch entry point — is a thin
//! wrapper that opens a single session on a private service and pumps
//! the read iterator through it: the scheduler/dispatch/sink stages
//! exist exactly once, in [`service`], so the one-shot path and the
//! server share them *structurally* rather than by byte-equivalence
//! testing.
//!
//! The paper's evaluation drives GenASM as a one-shot batch: load every
//! read, generate every candidate, align, print. This crate gives the
//! suite the shape a production service needs — a *continuous stream*
//! of alignment work fed to the backend each session names — with three
//! invariants:
//!
//! * **Bounded memory.** Stages communicate over bounded queues
//!   ([`queue::BoundedQueue`]); the task queue is weighted by bases so
//!   peak resident task memory is `O(queue_depth × batch_bases)`
//!   regardless of input size ([`PipelineConfig::resident_bases_bound`]).
//!   A full queue blocks the producer (backpressure) instead of
//!   buffering.
//! * **Deterministic output.** The scheduler numbers batches, a
//!   [`reorder::ReorderBuffer`] restores that order at the sink, and
//!   per-read rows are sorted by [`record::AlignRecord::sort_key`] —
//!   so output is byte-identical for every batch size, queue depth and
//!   thread count, and byte-identical to the one-shot `genasm align`
//!   path.
//! * **Observable stages.** [`metrics::PipelineMetrics`] reports
//!   per-stage busy time and throughput, queue depths, the batch-size
//!   histogram, backend utilization, peak in-flight bases, and
//!   per-shard busy time / merge dedup counts of the sharded index.
//!
//! The candidate-generation stage maps each read against a
//! [`mapper::ShardedIndex`] built from a multi-contig
//! [`align_core::Reference`]: the reference is split into
//! `PipelineConfig::shards` overlapping slices — never straddling a
//! contig boundary — each with its own minimizer index *and the only
//! copy of its slice of the reference* (the monolithic reference is
//! dropped after the build, so `resident_bases_bound` extends to the
//! reference itself). Anchors are collected by a persistent pool of
//! per-shard workers, and the merged stream is deterministic — output
//! stays byte-identical across shard counts and overlap settings.
//! Records report contig names and contig-local coordinates.
//!
//! Backends implement [`backend::Backend`]; the GenASM CPU engine,
//! the simulated GPU, and both baselines ship in [`backend`].
//!
//! **Parallelism.** There is one knob: [`PipelineConfig::dispatchers`]
//! engine workers (the CLI's `--threads`, default all cores). Each
//! worker is a long-lived dispatcher thread that takes one batch at a
//! time and aligns it on its own core with a workspace it keeps for
//! its lifetime — no fork/join inside a batch, so no worker waits for
//! another. A batch therefore runs on one core: a run with fewer
//! batches than workers uses fewer cores. Rows are rendered once, by
//! the consumer ([`record::OutputFormat::write_line`]); the sink only
//! reorders and routes them.

pub mod backend;
pub mod batcher;
pub mod explain;
pub mod metrics;
pub mod queue;
pub mod record;
pub mod reorder;
pub mod service;

use std::sync::Arc;
use std::time::Duration;

use align_core::{Reference, Seq};
use mapper::CandidateParams;

pub use backend::{
    Backend, BackendError, BackendKind, CpuBackend, EdlibBackend, GpuSimBackend, Ksw2Backend,
    ParseBackendError,
};
pub use batcher::{Batch, BatchBuilder, TaskMeta};
pub use explain::{disposition, ExplainRecord, ExplainSink, ReadProvenance, TaskExplain};
pub use genasm_telemetry::TraceRecorder;
pub use genasm_telemetry::{HistogramSnapshot, Registry, SlowRead, Snapshot};
pub use metrics::{
    BackendLat, BackendMetrics, FunnelCounts, PipelineMetrics, QueueMetrics, StageCounters,
    SLOW_READS_CAPACITY,
};
pub use queue::BoundedQueue;
pub use record::{escape_name, unescape_name, AlignRecord, OutputFormat, ParseFormatError};
pub use reorder::ReorderBuffer;
pub use service::{
    AdmissionError, OverflowPolicy, PipelineService, RecvOutcome, ServiceConfig, Session,
    SessionEvent, SessionMetrics, SessionReceiver, SessionStat, SubmitError,
};

/// One read entering the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadInput {
    /// Read name (becomes `qname` in the output records).
    pub name: String,
    /// The read sequence.
    pub seq: Seq,
}

/// Pipeline tuning knobs.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Target total bases (query + target) per dispatched batch.
    pub batch_bases: usize,
    /// Depth of each inter-stage queue: the task queue admits
    /// `queue_depth × batch_bases` bases, the batch and result queues
    /// `queue_depth` batches each.
    pub queue_depth: usize,
    /// Engine workers: dispatcher threads, each running one batch at
    /// a time on its own core (the CPU backends do not fork within a
    /// batch). Defaults to the available cores; the CLI sets it from
    /// `--threads`. Output is byte-identical for every count.
    pub dispatchers: usize,
    /// Reference shards for the candidate-generation stage: the
    /// reference index is split into this many overlapping slices and
    /// anchor collection fans out across them
    /// ([`mapper::ShardedIndex`]). Output is byte-identical for every
    /// shard count.
    pub shards: usize,
    /// Overlap between consecutive reference shards, in bases (clamped
    /// up to the exactness floor `w + k` by the index build).
    pub shard_overlap: usize,
    /// Candidate-generation parameters for the mapper stage.
    pub params: CandidateParams,
    /// Optional structured trace recorder: when set, every stage
    /// emits Chrome trace-event spans covering the read lifecycle
    /// (ingest → batch build → backend queue wait → execute → reorder
    /// wait → sink). Tracing is passive — it never changes output
    /// bytes (the determinism suite asserts this).
    pub trace: Option<Arc<TraceRecorder>>,
    /// Optional per-read provenance stream: when set, every read
    /// leaves exactly one `genasm-explain/v1` JSON line describing its
    /// pass through the decision funnel and its final disposition
    /// ([`explain::ExplainRecord`]). Like tracing, explaining is
    /// passive — output records stay byte-identical with it on or off
    /// (asserted by the determinism suite).
    pub explain: Option<Arc<ExplainSink>>,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            batch_bases: 256 * 1024,
            queue_depth: 8,
            dispatchers: available_threads(),
            shards: 1,
            shard_overlap: 256,
            params: CandidateParams::default(),
            trace: None,
            explain: None,
        }
    }
}

/// The machine's available parallelism (1 when it cannot be read):
/// the default number of engine workers.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Fixed trace lane (`tid`) assignment shared by the one-shot
/// pipeline and the resident service, so traces from both render with
/// the same layout in Perfetto.
pub(crate) mod tids {
    /// Per-read end-to-end spans.
    pub const READS: u64 = 0;
    /// Read ingest / candidate generation.
    pub const INGEST: u64 = 1;
    /// Batch scheduler.
    pub const SCHED: u64 = 2;
    /// Ordered sink.
    pub const SINK: u64 = 3;
    /// Session lifecycle (service only).
    pub const SESSION: u64 = 4;
    /// First backend lane: backend `b` on engine worker `w` (of
    /// `workers`) uses `BACKEND0 + b × workers + w`.
    pub const BACKEND0: u64 = 8;
}

/// Emit the lane-name metadata events every trace starts with: one
/// lane per backend per engine worker, so each worker's batches form
/// their own track.
pub(crate) fn trace_lanes(trace: &TraceRecorder, backends: &[&str], workers: usize) {
    trace.thread_name(tids::READS, "reads");
    trace.thread_name(tids::INGEST, "ingest/map");
    trace.thread_name(tids::SCHED, "scheduler");
    trace.thread_name(tids::SINK, "sink");
    trace.thread_name(tids::SESSION, "sessions");
    for (b, name) in backends.iter().enumerate() {
        for w in 0..workers {
            let tid = tids::BACKEND0 + (b * workers + w) as u64;
            trace.thread_name(tid, &format!("backend:{name}/worker{w}"));
        }
    }
}

impl PipelineConfig {
    /// Upper bound on bases resident in the pipeline at once, given the
    /// largest single task observed. Every stage holds at most one
    /// batch (plus the batch in construction and the reorder backlog),
    /// so residency is linear in `queue_depth × batch_bases` and
    /// independent of workload size — the property the streaming test
    /// asserts.
    pub fn resident_bases_bound(&self, max_task_bases: usize) -> usize {
        let q = self.queue_depth.max(1);
        let d = self.dispatchers.max(1);
        // A batch flushes when it *reaches* the target, so it can
        // overshoot by one task.
        let per_batch = self.batch_bases + max_task_bases;
        // task queue (weighted capacity + one oversized admission)
        q * self.batch_bases + max_task_bases
            // the scheduler's batch under construction
            + per_batch
            // batch queue + batches inside dispatchers + result queue
            + per_batch * (q + d + q)
            // reorder backlog: everything past the scheduler can be
            // waiting on one straggler batch
            + per_batch * (2 * q + d)
    }
}

/// Pipeline failure.
#[derive(Debug)]
pub enum PipelineError {
    /// The read stream produced an error.
    Input(String),
    /// A backend poisoned a batch.
    Backend(BackendError),
    /// A task found no alignment within the backend's edit budget.
    NoAlignment {
        /// Name of the read whose candidate failed.
        read: String,
    },
    /// The sink callback failed to write a record.
    Sink(std::io::Error),
}

impl core::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PipelineError::Input(msg) => write!(f, "read input: {msg}"),
            PipelineError::Backend(e) => write!(f, "{e}"),
            PipelineError::NoAlignment { read } => {
                write!(
                    f,
                    "alignment failed for read {read}: no alignment within the edit budget"
                )
            }
            PipelineError::Sink(e) => write!(f, "write error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Run the pipeline to completion.
///
/// A thin wrapper over [`service::PipelineService`]: it starts a
/// private single-session service around the caller's backend and
/// pumps the read iterator through it, so the scheduler/dispatch/sink
/// stages exist exactly once (in [`service`]) and the one-shot path is
/// *structurally* identical to a server session over the same reads.
///
/// `reads` is consumed incrementally — the whole read set is never
/// materialized. The `reference` is consumed: the sharded index takes
/// ownership of the contig sequences and drops everything but its
/// shard-local slices, so reference residency is bounded by the shard
/// geometry for the whole run. Records are delivered to `on_record`
/// in deterministic order (input read order; within a read, best
/// alignment first — see [`AlignRecord::sort_key`]) and report contig
/// names and contig-local coordinates. The first failure (input error,
/// poisoned batch, task with no alignment in budget, sink write error)
/// aborts the run; the records already emitted are always whole reads
/// in input order. Returns the run's [`PipelineMetrics`].
pub fn run_pipeline<I, E, F>(
    reads: I,
    reference: Reference,
    backend: Arc<dyn Backend>,
    cfg: &PipelineConfig,
    mut on_record: F,
) -> Result<PipelineMetrics, PipelineError>
where
    I: Iterator<Item = Result<ReadInput, E>> + Send,
    E: core::fmt::Display,
    F: FnMut(&AlignRecord) -> std::io::Result<()>,
{
    let svc_cfg = ServiceConfig {
        pipeline: cfg.clone(),
        max_sessions: 1,
        // One-shot batch geometry: a building batch flushes only when
        // it reaches its target — or at end of input, when shutdown
        // closes the task queue — exactly like the historical inline
        // scheduler. The linger is set far past any run length so the
        // age flush can never fire mid-run.
        linger: Duration::from_secs(3600),
        // The caps exist for multi-tenant fairness; a one-shot run is
        // its own only tenant, and its memory is already bounded by
        // the stage queues.
        max_session_output_bytes: 0,
        overflow: OverflowPolicy::Throttle,
        max_session_inflight_reads: 0,
        max_session_inflight_bases: 0,
    };
    // The kind only keys the single-entry backend table; the caller's
    // backend runs every batch.
    let kind = BackendKind::Cpu;
    let service =
        PipelineService::start_with_backends("", reference, svc_cfg, vec![(kind, backend)]);
    let (mut session, rx) = service
        .open_session(kind)
        .expect("a fresh service admits its first session");
    let mut failure: Option<PipelineError> = None;
    'ingest: for item in reads {
        let read = match item {
            Ok(read) => read,
            Err(e) => {
                failure = Some(PipelineError::Input(e.to_string()));
                break 'ingest;
            }
        };
        if let Err(e) = session.submit(read) {
            failure = Some(PipelineError::Input(e.to_string()));
            break 'ingest;
        }
        // Stream out whatever the sink has already delivered, so rows
        // flow to the caller while ingest continues.
        while let Some(event) = rx.try_recv() {
            if let Err(e) = deliver(&service, event, &mut on_record) {
                failure = Some(e);
                break 'ingest;
            }
        }
    }
    if let Some(e) = failure {
        // First failure aborts the run. Dropping the session halves
        // and the service closes every queue and joins the stage
        // threads, so what was emitted stays a whole-reads-in-input-
        // order prefix.
        drop(rx);
        drop(session);
        drop(service);
        return Err(e);
    }
    session.finish();
    // Drain the stages first: shutdown closes the task queue (flushing
    // the scheduler's partial batches) and joins the threads. The
    // session channel is unbounded, so every event — `End` included —
    // is waiting for the drain loop below; nothing can be lost.
    let metrics = service.shutdown();
    while let Some(event) = rx.recv() {
        match deliver(&service, event, &mut on_record) {
            Ok(true) => break,
            Ok(false) => {}
            Err(e) => {
                drop(rx);
                drop(service);
                return Err(e);
            }
        }
    }
    Ok(metrics)
}

/// Handle one session event in the one-shot pump. `Ok(true)` = the
/// session ended.
fn deliver<F>(
    service: &PipelineService,
    event: SessionEvent,
    on_record: &mut F,
) -> Result<bool, PipelineError>
where
    F: FnMut(&AlignRecord) -> std::io::Result<()>,
{
    match event {
        SessionEvent::Rows(rows) => {
            for row in &rows {
                on_record(row).map_err(PipelineError::Sink)?;
            }
            Ok(false)
        }
        SessionEvent::ReadFailed { read } => {
            // The service fails reads individually; the one-shot
            // contract aborts on the first one, with the typed cause:
            // a poisoned batch surfaces as the backend's own error, a
            // task that exhausted its edit budget as `NoAlignment`.
            Err(match service.last_backend_error_detail() {
                Some(e) => PipelineError::Backend(e),
                None => PipelineError::NoAlignment { read },
            })
        }
        SessionEvent::End(_) => Ok(true),
        // The output cap is disabled in the one-shot config, and
        // explain lines already flow through the config's sink.
        SessionEvent::Overflow { .. } | SessionEvent::Explain(_) => Ok(false),
    }
}
