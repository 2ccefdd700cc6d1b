//! The traced layer replay.
//!
//! One process replays a workload's inputs layer by layer through the
//! crates' public entry points: parse → map → batch → engine → per-read
//! order → render. The layers run back to back on one thread (the engine
//! keeps its own worker pool), so their self times add up to the
//! replay's wall time. Each call is wrapped in a span kept in memory and
//! written at the end in the Chrome trace format of
//! [`genasm_telemetry::TraceRecorder`], the format of the program's own
//! `--trace`.
//!
//! Besides the replay proper, three more phases record spans under their
//! own roots and stay out of the replay's wall time: a mapper probe that
//! splits mapping into anchor, chain and stitch; the workload's sessions
//! replayed in-process through `PipelineService`; and engine counters on
//! a fixed sample of the workload's tasks (single-threaded baseline,
//! on/off-target split, the paper's memory claims, the Myers optimum and
//! the modelled GPU).

use std::collections::HashMap;
use std::fs::File;
use std::hint::black_box;
use std::io::BufReader;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use align_core::{AlignTask, Reference};
use baselines::MyersAligner;
use genasm_core::{align_with_workspace_hinted, AlignWorkspace, GenAsmConfig, MemStats};
use genasm_cpu::align_batch_genasm;
use genasm_gpu::GpuAligner;
use genasm_pipeline::{
    AlignRecord, BackendKind, Batch, BatchBuilder, OutputFormat, PipelineConfig, PipelineService,
    ReadInput, ReadProvenance, ServiceConfig, SessionEvent, TaskMeta,
};
use genasm_telemetry::{TraceArg, TraceRecorder};
use gpu_sim::Device;
use mapper::{chain_window, CandidateParams, ShardedIndex};
use readsim::{read_multi_fastx, FastxReader};

use crate::gen::{load_sessions, load_truth, Truth};
use crate::{Metrics, Workload};

/// The CLI's default `--batch-bases`.
const BATCH_BASES: usize = 256 * 1024;

/// At most this many tasks go into the engine sample.
const SAMPLE_TASKS: usize = 256;

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    read: Option<u64>,
}

/// In-memory span store. When off, `time` just runs the closure, which
/// is how the tracing overhead is measured.
struct Spans {
    on: bool,
    spans: Vec<Span>,
    root: Option<usize>,
}

impl Spans {
    fn new(on: bool) -> Spans {
        Spans {
            on,
            spans: Vec::new(),
            root: None,
        }
    }

    /// Run `f` inside a span named `name` under the current root.
    fn time<T>(&mut self, name: &'static str, read: Option<u64>, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.spans.push(Span {
            name,
            start,
            end: Instant::now(),
            parent: self.root,
            read,
        });
        out
    }

    /// Open a root span; later spans are its children until `close`.
    fn open(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: None,
            read: None,
        });
        self.root = Some(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn close(&mut self, root: usize) -> Duration {
        self.spans[root].end = Instant::now();
        self.root = None;
        self.spans[root].end - self.spans[root].start
    }

    /// Summed duration of the spans named `name` under `root`.
    fn total(&self, root: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(root) && s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Self time per layer (the name up to its first dot) under `root`.
    /// Spans under one root never nest, so self time is duration.
    fn layer_times(&self, root: usize) -> Vec<(String, f64)> {
        let mut by: Vec<(String, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.parent == Some(root)) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let d = (s.end - s.start).as_secs_f64();
            match by.iter_mut().find(|(l, _)| l == layer) {
                Some((_, t)) => *t += d,
                None => by.push((layer.to_string(), d)),
            }
        }
        by
    }

    /// Write every span as a Chrome trace event, one lane per root.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let rec = TraceRecorder::create(path)?;
        for (i, s) in self.spans.iter().enumerate() {
            let lane = s.parent.unwrap_or(i) as u64;
            if s.parent.is_none() {
                rec.thread_name(lane, s.name);
            }
            let mut args: Vec<(&str, TraceArg)> = vec![("id", TraceArg::U64(i as u64))];
            if let Some(p) = s.parent {
                args.push(("parent", TraceArg::U64(p as u64)));
            }
            if let Some(r) = s.read {
                args.push(("read", TraceArg::U64(r)));
            }
            let cat = s.name.split('.').next().unwrap_or(s.name);
            rec.span(s.name, cat, lane, s.start, s.end - s.start, &args);
        }
        rec.finish()
    }
}

fn load_reference(dir: &Path) -> Result<Reference, String> {
    let f = File::open(dir.join("ref.fa")).map_err(|e| format!("ref.fa: {e}"))?;
    read_multi_fastx(BufReader::new(f)).map_err(|e| format!("ref.fa: {e}"))
}

fn reads_reader(dir: &Path) -> Result<FastxReader<BufReader<File>>, String> {
    let f = File::open(dir.join("reads.fq")).map_err(|e| format!("reads.fq: {e}"))?;
    Ok(FastxReader::new(BufReader::new(f)))
}

fn params(w: Workload) -> CandidateParams {
    CandidateParams {
        max_per_read: w.max_per_read(),
        ..CandidateParams::default()
    }
}

/// A task of the engine sample, with what the replay learned about it.
struct SampleTask {
    task: AlignTask,
    on_target: bool,
    /// Edit distance the pipeline's engine found.
    edits: usize,
}

/// What one pass of the replay produced.
struct ReplayRun {
    output: Vec<u8>,
    wall: Duration,
    root: usize,
    reads: u64,
    read_bytes: u64,
    failed_reads: u64,
    anchors: u64,
    tasks: u64,
    on_target_tasks: u64,
    batches: u64,
    batch_bases: u64,
    stats: MemStats,
    sample: Vec<SampleTask>,
    /// Sample slot of each sampled task, by global task number.
    sample_wait: HashMap<u64, usize>,
    /// Tasks aligned so far.
    engine_tasks: u64,
}

struct PendingRead {
    remaining: usize,
    failed: bool,
    rows: Vec<AlignRecord>,
}

/// Align one batch and hand its rows to their reads; render every read
/// the batch completes.
fn run_batch(
    batch: Batch,
    cfg: &GenAsmConfig,
    spans: &mut Spans,
    run: &mut ReplayRun,
    pending: &mut HashMap<u64, PendingRead>,
) {
    run.batches += 1;
    run.batch_bases += batch.bases as u64;
    let res = spans.time("engine.batch", None, || {
        align_batch_genasm(&batch.tasks, cfg)
    });
    run.stats.merge(&res.stats);
    let mut done = Vec::new();
    spans.time("record.build", None, || {
        for (meta, aln) in batch.metas.iter().zip(&res.alignments) {
            if let Some(&slot) = run.sample_wait.get(&run.engine_tasks) {
                run.sample[slot].edits = aln.as_ref().map_or(usize::MAX, |a| a.edit_distance);
            }
            run.engine_tasks += 1;
            let p = pending
                .get_mut(&meta.read_seq)
                .expect("every task belongs to a pending read");
            match aln {
                Some(a) => p.rows.push(AlignRecord::new(
                    &meta.qname,
                    meta.qlen,
                    &meta.tname,
                    meta.tsize,
                    meta.tstart,
                    meta.tlen,
                    meta.reverse,
                    a,
                )),
                None => p.failed = true,
            }
            p.remaining -= 1;
            if p.remaining == 0 {
                done.push(meta.read_seq);
            }
        }
    });
    // Tasks are contiguous per read and batches run in order, so reads
    // complete in input order.
    for read in done {
        let mut p = pending.remove(&read).expect("completed read is pending");
        if p.failed {
            run.failed_reads += 1;
            continue;
        }
        spans.time("record.order", Some(read), || {
            p.rows.sort_by_cached_key(AlignRecord::sort_key)
        });
        spans.time("record.render", Some(read), || {
            for row in &p.rows {
                run.output
                    .extend_from_slice(OutputFormat::Tsv.line(row).as_bytes());
                run.output.push(b'\n');
            }
        });
    }
}

/// Replay the workload once. `flush_after` lists read counts after
/// which the batch builder is flushed (session ends for the serve
/// workload, whose batches the linger timer cuts at session size).
fn replay_once(
    w: Workload,
    dir: &Path,
    truth: &[(String, Truth)],
    flush_after: &[usize],
    sample_stride: usize,
    spans: &mut Spans,
) -> Result<ReplayRun, String> {
    let params = params(w);
    let cfg = GenAsmConfig::improved();
    let root = spans.open("replay");
    let reference = spans.time("fastx.ref_parse", None, || load_reference(dir))?;
    let index = spans.time("mapper.index_build", None, || {
        ShardedIndex::build(reference, 1, 256)
    });
    let mut reader = reads_reader(dir)?;
    let mut builder = BatchBuilder::new(BATCH_BASES);
    let mut run = ReplayRun {
        output: Vec::new(),
        wall: Duration::ZERO,
        root,
        reads: 0,
        read_bytes: 0,
        failed_reads: 0,
        anchors: 0,
        tasks: 0,
        on_target_tasks: 0,
        batches: 0,
        batch_bases: 0,
        stats: MemStats::new(),
        sample: Vec::new(),
        sample_wait: HashMap::new(),
        engine_tasks: 0,
    };
    let mut pending: HashMap<u64, PendingRead> = HashMap::new();
    let mut flushes = flush_after.iter().peekable();

    let mut i = 0u64;
    while let Some(rec) = spans.time("fastx.parse", Some(i), || reader.next()) {
        let rec = rec.map_err(|e| format!("reads.fq: {e}"))?;
        run.reads += 1;
        run.read_bytes += rec.seq.len() as u64;
        let t = &truth
            .get(i as usize)
            .filter(|(name, _)| *name == rec.name)
            .ok_or_else(|| format!("truth does not match read {}", rec.name))?
            .1;
        let started = Instant::now();
        let (tasks, stats) = spans.time("mapper.map", Some(i), || {
            index.candidates_for_read_stats(i as u32, &rec.seq, &params)
        });
        let map_ns = started.elapsed().as_nanos() as u64;
        run.anchors += stats.anchors;
        if !tasks.is_empty() {
            pending.insert(
                i,
                PendingRead {
                    remaining: tasks.len(),
                    failed: false,
                    rows: Vec::with_capacity(tasks.len()),
                },
            );
        }
        let qname: Arc<str> = Arc::from(rec.name.as_str());
        let provenance = Arc::new(ReadProvenance {
            anchors: stats.anchors,
            chains: stats.chains,
            candidates: stats.candidates,
            map_ns,
        });
        let n = tasks.len() as u32;
        let mut ready = Vec::new();
        for task in tasks {
            let on = t.hit(
                index.contig_name(task.contig),
                task.ref_pos,
                task.ref_pos + task.target.len(),
                task.reverse,
            );
            run.on_target_tasks += on as u64;
            if run.tasks.is_multiple_of(sample_stride as u64) && run.sample.len() < SAMPLE_TASKS {
                run.sample_wait.insert(run.tasks, run.sample.len());
                run.sample.push(SampleTask {
                    task: task.clone(),
                    on_target: on,
                    edits: 0,
                });
            }
            run.tasks += 1;
            let now = Instant::now();
            let meta = TaskMeta {
                read_seq: i,
                session: 0,
                qname: Arc::clone(&qname),
                qlen: rec.seq.len(),
                read_tasks: n,
                tname: index.contig_name_shared(task.contig),
                tsize: index.contig_len(task.contig),
                tstart: task.ref_pos,
                tlen: task.target.len(),
                reverse: task.reverse,
                max_edits: task.max_edits,
                provenance: Arc::clone(&provenance),
                submitted_at: now,
                enqueued_at: now,
            };
            if let Some(b) = spans.time("batcher.push", Some(i), || builder.push(task, meta)) {
                ready.push(b);
            }
        }
        i += 1;
        if flushes.peek() == Some(&&(i as usize)) {
            flushes.next();
            if let Some(b) = spans.time("batcher.take", None, || builder.take()) {
                ready.push(b);
            }
        }
        for b in ready {
            run_batch(b, &cfg, spans, &mut run, &mut pending);
        }
    }
    if let Some(b) = spans.time("batcher.take", None, || builder.take()) {
        run_batch(b, &cfg, spans, &mut run, &mut pending);
    }
    run.wall = spans.close(root);
    Ok(run)
}

/// Split mapping into anchor collection, chaining and window stitching
/// by timing each public step on its own.
fn probe_mapper(w: Workload, dir: &Path, spans: &mut Spans) -> Result<usize, String> {
    let params = params(w);
    let root = spans.open("probe");
    let index = ShardedIndex::build(load_reference(dir)?, 1, 256);
    for (i, rec) in reads_reader(dir)?.enumerate() {
        let rec = rec.map_err(|e| format!("reads.fq: {e}"))?;
        let read = Some(i as u64);
        black_box(spans.time("mapper.anchor", read, || index.collect_anchors(&rec.seq)));
        let chains = spans.time("mapper.chain", read, || {
            index.chains_for_read(&rec.seq, &params.chain)
        });
        spans.time("mapper.stitch", read, || {
            for (ci, chain) in chains.iter().take(params.max_per_read) {
                let limit = index.contig_len(*ci);
                let (start, end) = chain_window(chain, rec.seq.len(), limit, params.flank);
                black_box(index.window(*ci, start, end));
                if chain.reverse {
                    black_box(rec.seq.reverse_complement());
                }
            }
        });
    }
    spans.close(root);
    Ok(root)
}

/// Latency of each replayed session, and the sessions' concatenated
/// output in session order.
struct ServiceRun {
    latencies_ms: Vec<f64>,
    output: Vec<u8>,
    failed_reads: u64,
}

/// Replay the workload's sessions in-process through
/// `PipelineService`. One-shot workloads are one session holding every
/// read; the serve workload's sessions are due `1/rate` seconds apart,
/// and run on as many threads as the socket client has connections.
fn replay_service(
    w: Workload,
    dir: &Path,
    timed: &TimedRun,
    spans: &mut Spans,
) -> Result<ServiceRun, String> {
    let reads: Vec<ReadInput> = reads_reader(dir)?
        .map(|r| {
            r.map(|rec| ReadInput {
                name: rec.name,
                seq: rec.seq,
            })
            .map_err(|e| format!("reads.fq: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let sizes = match w {
        Workload::ServeSmall => load_sessions(dir)?,
        _ => vec![reads.len()],
    };
    let mut starts = Vec::with_capacity(sizes.len());
    let mut at = 0;
    for n in &sizes {
        starts.push(at);
        at += n;
    }
    let cfg = ServiceConfig {
        pipeline: PipelineConfig {
            params: params(w),
            ..PipelineConfig::default()
        },
        ..ServiceConfig::default()
    };
    let service = PipelineService::start("ref", load_reference(dir)?, cfg);
    let root = spans.open("service");
    let next = AtomicUsize::new(0);
    type Done = (usize, f64, Vec<u8>, u64, Instant, Instant);
    let done: Mutex<Vec<Done>> = Mutex::new(Vec::new());
    let conns = if sizes.len() > 1 {
        timed.connections
    } else {
        1
    };
    let (reads, starts, sizes) = (&reads, &starts, &sizes);
    let t0 = Instant::now();
    let run_session = |s: usize| -> Result<Done, String> {
        let due = t0 + Duration::from_secs_f64(s as f64 / timed.rate);
        if sizes.len() > 1 {
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
        }
        let due = if sizes.len() > 1 { due } else { Instant::now() };
        let (mut session, rx) = service
            .open_session(BackendKind::Cpu)
            .map_err(|e| format!("session refused: {e}"))?;
        let mut out = Vec::new();
        let mut failed = 0;
        std::thread::scope(|scope| -> Result<(), String> {
            let submit = scope.spawn(move || -> Result<(), String> {
                for r in &reads[starts[s]..starts[s] + sizes[s]] {
                    session
                        .submit(r.clone())
                        .map_err(|e| format!("submit: {e}"))?;
                }
                session.finish();
                Ok(())
            });
            for ev in rx.iter() {
                match ev {
                    SessionEvent::Rows(rows) => {
                        for row in &rows {
                            out.extend_from_slice(OutputFormat::Tsv.line(row).as_bytes());
                            out.push(b'\n');
                        }
                    }
                    SessionEvent::ReadFailed { .. } => failed += 1,
                    SessionEvent::End(_) => break,
                    _ => {}
                }
            }
            submit.join().expect("submit thread panicked")
        })?;
        let end = Instant::now();
        Ok((s, (end - due).as_secs_f64() * 1e3, out, failed, due, end))
    };
    std::thread::scope(|scope| -> Result<(), String> {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                scope.spawn(|| -> Result<(), String> {
                    loop {
                        let s = next.fetch_add(1, Ordering::SeqCst);
                        if s >= sizes.len() {
                            return Ok(());
                        }
                        let d = run_session(s)?;
                        done.lock().expect("session results lock").push(d);
                    }
                })
            })
            .collect();
        for h in workers {
            h.join().expect("session thread panicked")?;
        }
        Ok(())
    })?;
    spans.close(root);
    service.shutdown();
    let mut done = done.into_inner().expect("session results lock");
    done.sort_by_key(|d| d.0);
    let mut run = ServiceRun {
        latencies_ms: Vec::with_capacity(done.len()),
        output: Vec::new(),
        failed_reads: 0,
    };
    for (s, ms, out, failed, start, end) in done {
        spans.spans.push(Span {
            name: "service.session",
            start,
            end,
            parent: Some(root),
            read: Some(starts[s] as u64),
        });
        run.latencies_ms.push(ms);
        run.output.extend_from_slice(&out);
        run.failed_reads += failed;
    }
    Ok(run)
}

fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Engine counters on the sample: the single-threaded plain baseline
/// split by on/off-target task, the paper's memory and access claims
/// against the unimproved configuration, the Myers optimum, and the
/// modelled GPU.
fn engine_sample(sample: &[SampleTask], spans: &mut Spans, m: &mut Metrics) -> Result<(), String> {
    let cfg = GenAsmConfig::improved();
    let root = spans.open("extras");
    let mut ws = AlignWorkspace::with_capacity(cfg.w);
    // (windows, ns, rows) for off-target [0] and on-target [1] tasks.
    let mut split = [(0u64, 0f64, 0u64); 2];
    for s in sample {
        let hint = s.task.max_edits.map(|e| e as usize);
        let t = Instant::now();
        let aln = spans.time("engine.single", Some(s.task.read_id as u64), || {
            align_with_workspace_hinted(&s.task.query, &s.task.target, &cfg, hint, &mut ws)
        });
        let ns = t.elapsed().as_nanos() as f64;
        black_box(aln.ok());
        let st = ws.take_stats();
        let side = &mut split[s.on_target as usize];
        side.0 += st.windows;
        side.1 += ns;
        side.2 += st.rows_computed;
    }
    let windows = (split[0].0 + split[1].0).max(1) as f64;
    let per = |w: u64, ns: f64| if w == 0 { 0.0 } else { ns / w as f64 };
    m.put(
        "engine.st_ns_per_window",
        (split[0].1 + split[1].1) / windows,
        "ns",
    );
    m.put(
        "engine.st_ns_per_window_on_target",
        per(split[1].0, split[1].1),
        "ns",
    );
    m.put(
        "engine.st_ns_per_window_off_target",
        per(split[0].0, split[0].1),
        "ns",
    );
    m.put(
        "engine.st_rows_per_window_on_target",
        per(split[1].0, split[1].2 as f64),
        "count",
    );
    m.put(
        "engine.st_rows_per_window_off_target",
        per(split[0].0, split[0].2 as f64),
        "count",
    );
    m.put("engine.sample_windows", windows, "count");
    m.put(
        "engine.sample_off_target_window_frac",
        split[0].0 as f64 / windows,
        "ratio",
    );

    // The paper compares configurations at the same full edit budget,
    // so the mapper's per-task hints are dropped here.
    let plain: Vec<AlignTask> = sample
        .iter()
        .map(|s| AlignTask {
            max_edits: None,
            ..s.task.clone()
        })
        .collect();
    let improved = spans.time("engine.sample_improved", None, || {
        align_batch_genasm(&plain, &cfg)
    });
    let baseline = spans.time("engine.sample_baseline", None, || {
        align_batch_genasm(&plain, &GenAsmConfig::baseline())
    });
    m.put(
        "engine.footprint_reduction",
        baseline.stats.footprint_reduction_vs(&improved.stats),
        "x",
    );
    m.put(
        "engine.access_reduction",
        baseline.stats.access_reduction_vs(&improved.stats),
        "x",
    );

    let myers = MyersAligner::new();
    let optimal: usize = spans.time("baselines.myers", None, || {
        sample
            .iter()
            .map(|s| myers.distance(&s.task.query, &s.task.target))
            .sum()
    });
    let found: usize = sample.iter().map(|s| s.edits).sum();
    m.put(
        "engine.nm_excess",
        found as f64 / optimal.max(1) as f64,
        "ratio",
    );

    let tasks: Vec<AlignTask> = sample.iter().map(|s| s.task.clone()).collect();
    let cpu = Instant::now();
    spans.time("engine.sample_cpu", None, || {
        black_box(align_batch_genasm(&tasks, &cfg))
    });
    let cpu_ms = cpu.elapsed().as_secs_f64() * 1e3;
    let gpu = GpuAligner::improved(Device::a6000());
    let report = spans
        .time("gpusim.batch", None, || gpu.align_batch(&tasks))
        .map_err(|e| format!("gpu-sim: {e}"))?;
    m.put("gpusim.modeled_ms", report.timing.total_ms, "ms");
    m.put("gpusim.host_s", report.host_ms / 1e3, "s");
    m.put(
        "gpusim.modeled_speedup_vs_cpu",
        cpu_ms / report.timing.total_ms,
        "x",
    );
    m.put("engine.sample_tasks", sample.len() as f64, "count");
    spans.close(root);
    Ok(())
}

/// What the benchmark's timed run did, for the replay to match.
pub struct TimedRun<'a> {
    /// Record stream of the timed run over the same reads.
    pub output: &'a Path,
    /// For the serve workload, the sessions' socket output.
    pub socket: Option<&'a Path>,
    /// Offered load of the serve workload, in sessions per second.
    pub rate: f64,
    /// Concurrent sessions of the serve workload.
    pub connections: usize,
}

/// Run every replay phase for workload `w` and return the per-layer
/// metrics plus whether the replayed outputs were byte-identical.
pub fn run(
    w: Workload,
    dir: &Path,
    timed: &TimedRun,
    trace_out: &Path,
) -> Result<(Metrics, bool, u64), String> {
    let truth = load_truth(dir)?;
    let mut m = Metrics::default();
    let flush_after: Vec<usize> = match w {
        Workload::ServeSmall => load_sessions(dir)?
            .iter()
            .scan(0, |at, n| {
                *at += n;
                Some(*at)
            })
            .collect(),
        _ => Vec::new(),
    };

    // Untraced first, then traced: the difference is the span cost.
    let mut off = Spans::new(false);
    let plain = replay_once(w, dir, &truth, &flush_after, usize::MAX, &mut off)?;
    let stride_probe = plain.tasks.div_ceil(SAMPLE_TASKS as u64).max(1) as usize;
    drop(plain.output);
    let mut spans = Spans::new(true);
    let run = replay_once(w, dir, &truth, &flush_after, stride_probe, &mut spans)?;

    let want =
        std::fs::read(timed.output).map_err(|e| format!("{}: {e}", timed.output.display()))?;
    let mut identical = run.output == want;
    let root = run.root;
    let wall = run.wall.as_secs_f64();
    let t = |name: &str| spans.total(root, name);

    m.put("fastx.ref_parse_s", t("fastx.ref_parse"), "s");
    m.put("fastx.parse_s", t("fastx.parse"), "s");
    m.put(
        "fastx.MBps",
        run.read_bytes as f64 / t("fastx.parse").max(1e-9) / 1e6,
        "MB/s",
    );
    m.put("mapper.index_build_s", t("mapper.index_build"), "s");
    m.put("mapper.map_s", t("mapper.map"), "s");
    m.put(
        "mapper.anchors_per_read",
        run.anchors as f64 / run.reads.max(1) as f64,
        "count",
    );
    m.put(
        "mapper.tasks_per_read",
        run.tasks as f64 / run.reads.max(1) as f64,
        "count",
    );
    m.put(
        "mapper.on_target_frac",
        run.on_target_tasks as f64 / run.tasks.max(1) as f64,
        "ratio",
    );
    m.put("batcher.batches", run.batches as f64, "count");
    m.put(
        "batcher.mean_batch_kbases",
        run.batch_bases as f64 / run.batches.max(1) as f64 / 1e3,
        "kbases",
    );
    m.put(
        "batcher.build_s",
        t("batcher.push") + t("batcher.take"),
        "s",
    );
    let busy = t("engine.batch");
    let st = &run.stats;
    let windows = st.windows.max(1) as f64;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    m.put("engine.busy_s", busy, "s");
    m.put("engine.threads", threads as f64, "count");
    m.put("engine.windows", st.windows as f64, "count");
    m.put(
        "engine.ns_per_window",
        busy * 1e9 * threads as f64 / windows,
        "ns",
    );
    m.put("engine.rows_per_window", st.mean_rows_per_window(), "count");
    m.put(
        "engine.cells_skipped_per_window",
        st.band_cells_skipped as f64 / windows,
        "count",
    );
    m.put(
        "engine.early_term_frac",
        st.windows_early_terminated as f64 / windows,
        "ratio",
    );
    m.put(
        "engine.rescued_frac",
        st.windows_rescued as f64 / windows,
        "ratio",
    );
    m.put(
        "engine.table_bytes_per_window",
        st.mean_table_bytes_per_window(),
        "bytes",
    );
    m.put(
        "engine.accesses_per_window",
        st.table_accesses() as f64 / windows,
        "count",
    );
    let render = t("record.render");
    m.put("record.build_s", t("record.build"), "s");
    m.put("record.order_s", t("record.order"), "s");
    m.put("record.render_s", render, "s");
    m.put("record.bytes", run.output.len() as f64, "bytes");
    m.put(
        "record.MBps",
        run.output.len() as f64 / render.max(1e-9) / 1e6,
        "MB/s",
    );

    let layers = spans.layer_times(root);
    let covered: f64 = layers.iter().map(|(_, s)| s).sum();
    m.put("trace.replay_s", wall, "s");
    m.put("trace.cover_frac", covered / wall, "ratio");
    m.put(
        "trace.overhead_frac",
        wall / plain.wall.as_secs_f64() - 1.0,
        "ratio",
    );
    for (layer, secs) in &layers {
        let name: &'static str = match layer.as_str() {
            "fastx" => "share.fastx",
            "mapper" => "share.mapper",
            "batcher" => "share.batcher",
            "engine" => "share.engine",
            "record" => "share.record",
            _ => continue,
        };
        m.put(name, secs / wall, "ratio");
    }

    let probe = probe_mapper(w, dir, &mut spans)?;
    let anchor = spans.total(probe, "mapper.anchor");
    m.put("mapper.anchor_s", anchor, "s");
    m.put(
        "mapper.chain_s",
        (spans.total(probe, "mapper.chain") - anchor).max(0.0),
        "s",
    );
    m.put("mapper.stitch_s", spans.total(probe, "mapper.stitch"), "s");

    let service = replay_service(w, dir, timed, &mut spans)?;
    m.put(
        "service.session_p50_ms",
        quantile(&service.latencies_ms, 0.5),
        "ms",
    );
    let socket = match timed.socket {
        Some(p) => std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()))?,
        None => want,
    };
    identical &= service.output == socket;

    engine_sample(&run.sample, &mut spans, &mut m)?;
    spans.write(trace_out).map_err(|e| format!("trace: {e}"))?;
    Ok((m, identical, run.failed_reads + service.failed_reads))
}
