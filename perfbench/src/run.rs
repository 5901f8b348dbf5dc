//! One measured run of one workload: repetitions of its streams until the
//! pass is complete and the time budget is spent, then the metrics.
//!
//! Every repetition bootstraps a leader and a replica, then drives the
//! stream closed-loop: the next batch is generated and submitted only when
//! the previous `Leader::ingest` has returned and the replica has
//! acknowledged its replay. Batch generation and the correctness checks
//! sit outside every timed span.

use crate::check::{check_balance, recount_locality};
use crate::gen::{graph_seed, stream_seed, BatchGen, History};
use crate::serve::{Replica, ServeStats, Shipped};
use crate::stats::{mean, median, percentile};
use crate::workload::{Workload, REPEATS};
use mdbgp_core::{GdConfig, GdPartitioner};
use mdbgp_graph::Partitioner;
use mdbgp_stream::wire::{read_log_header, read_record, write_log_header, write_record};
use mdbgp_stream::{Follower, Leader, SpanNode, StreamConfig, StreamingPartitioner};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// End-to-end metrics: name and unit, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_ms_p50", "ms"),
    ("ingest_ms_tail", "ms"),
    ("updates_per_s", "1/s"),
    ("final_locality", "fraction"),
    ("peak_rss_mb", "MiB"),
    ("lookups_per_s", "1/s"),
    ("lookup_ns_p50", "ns"),
    ("lookup_ns_tail", "ns"),
    ("replay_lag_ms_p50", "ms"),
    ("replay_lag_ms_tail", "ms"),
];

/// Per-layer metrics of the traced run: name and unit, in
/// `BENCHMARK.json` order. A layer a workload does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.bootstrap_ms", "ms"),
    ("core.scratch_solve_ms", "ms"),
    ("core.scratch_locality", "fraction"),
    ("core.gd.refine_iterations", "count"),
    ("core.gd.grad_full_recomputes", "count"),
    ("core.gd.grad_delta_iters", "count"),
    ("core.gd.pair_accept_ratio", "fraction"),
    ("refine.ms", "ms"),
    ("refine.rebalance_ms", "ms"),
    ("refine.gd_ms", "ms"),
    ("refine.recount_ms", "ms"),
    ("refine.passes", "count"),
    ("refine.trigger_ratio", "fraction"),
    ("refine.gd_moves", "count"),
    ("refine.rebalance_moves", "count"),
    ("refine.useful_pass_ratio", "fraction"),
    ("dynamic.compact_ms", "ms"),
    ("dynamic.compact_merges", "count"),
    ("dynamic.compact_purges", "count"),
    ("pipeline.ingest_ms", "ms"),
    ("pipeline.validate_ms", "ms"),
    ("pipeline.split_ms", "ms"),
    ("pipeline.place_ms", "ms"),
    ("pipeline.repair_ms", "ms"),
    ("pipeline.commit_ms", "ms"),
    ("placement.conflict_ratio", "fraction"),
    ("pipeline.repair_spec_rounds", "count"),
    ("pipeline.split_parallel_ranges", "count"),
    ("store.lookup_burst_ns", "ns"),
    ("store.refresh_us", "us"),
    ("store.refreshes", "count"),
    ("store.view_swaps", "count"),
    ("store.stale_epoch_reads", "count"),
    ("wire.append_ms", "ms"),
    ("wire.log_bytes", "bytes"),
    ("wire.replay_input_bytes", "bytes"),
    ("replica.replay_ms", "ms"),
    ("replica.replay_wait_ms", "ms"),
    ("replica.rotate_ms", "ms"),
    ("snapshot.save_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.restore_ms", "ms"),
    ("bench.batch_gen_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// Registry counters read after each repetition. They repeat exactly for
/// a fixed seed and are printed as part of the determinism artefact.
const COUNTERS: &[&str] = &[
    "core.gd.grad_delta_iters",
    "core.gd.grad_full_recomputes",
    "core.gd.pairs_applied",
    "core.gd.pairs_degenerate",
    "core.gd.pairs_rejected_balance",
    "core.gd.pairs_rejected_cut",
    "stream.compact.merges",
    "stream.compact.purges",
    "stream.log.bytes",
    "stream.log.records",
    "stream.refine.gd_moves",
    "stream.refine.passes",
    "stream.refine.rebalance_moves",
    "stream.repair.spec_rounds",
    "stream.split.parallel_ranges",
    "stream.store.stale_epoch_reads",
    "stream.store.view_swaps",
];

/// Faults a test can inject to prove the failure accounting works.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// Check each batch against half the configured ε.
    Eps,
    /// Flip the leader's view checksum in one shipped log record.
    Diverge,
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub fault: Option<Fault>,
}

pub struct Outcome {
    /// Metric name, value and unit, in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Human-readable lines: sample counts, percentiles, determinism
    /// artefacts.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }
}

/// Operation accounting shared by the leader-side loop.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Ops {
    fn record(&mut self, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.errors.extend(errors);
        }
    }
}

/// Everything one repetition measured.
struct Rep {
    stream: usize,
    traced: bool,
    bootstrap_ms: f64,
    setup_s: f64,
    ingest_ms: Vec<f64>,
    updates: u64,
    stream_s: f64,
    first_locality: f64,
    final_locality: f64,
    checksum: u64,
    counters: BTreeMap<&'static str, u64>,
    serve: ServeStats,
    ops: Ops,
    /// Per-layer sums of this repetition (traced repetitions only).
    layer: BTreeMap<&'static str, f64>,
}

struct Setup {
    leader: Leader,
    follower: Follower,
    bootstrap_ms: f64,
    setup_s: f64,
}

fn config(w: &Workload, seed: u64) -> StreamConfig {
    let threads = w.threads();
    let mut cfg = StreamConfig::new(w.k, w.eps).with_threads(threads);
    cfg.gd = GdConfig {
        iterations: 60,
        threads,
        ..GdConfig::with_epsilon(w.eps)
    };
    cfg.seed = seed;
    if let Some(slack) = w.compact_slack {
        cfg.compact_slack = slack;
    }
    cfg
}

/// Cold GD bootstrap, leader log + snapshot, replica restore. Graph
/// generation is not part of it.
fn setup(w: &Workload, history: &History, seed: u64) -> Result<Setup, String> {
    let (graph, weights) = (history.boot.clone(), history.boot_weights.clone());
    let cfg = config(w, seed);
    let start = Instant::now();
    let engine = StreamingPartitioner::bootstrap(graph, weights, cfg)
        .map_err(|e| format!("bootstrap failed: {e}"))?;
    let bootstrap_ms = ms(start.elapsed());
    let leader = Leader::new(engine).map_err(|e| format!("leader failed: {e}"))?;
    let follower = Follower::bootstrap(leader.snapshot_bytes())
        .map_err(|e| format!("follower bootstrap failed: {e}"))?;
    Ok(Setup {
        leader,
        follower,
        bootstrap_ms,
        setup_s: start.elapsed().as_secs_f64(),
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Where shipped log tails go: a replica thread that acknowledges each
/// replay, or a replica served inline between batches.
enum Sink {
    Thread {
        tails: mpsc::Sender<Shipped>,
        acks: mpsc::Receiver<()>,
    },
    Inline(Box<Replica>),
}

/// Re-encodes `log` with its last record's view checksum flipped.
fn corrupt_last_record(log: &[u8]) -> Vec<u8> {
    let mut r = log;
    let header = read_log_header(&mut r).expect("the leader wrote this header");
    let mut records = Vec::new();
    while let Some(rec) = read_record(&mut r).expect("the leader wrote these records") {
        records.push(rec);
    }
    if let Some(last) = records.last_mut() {
        last.view_checksum ^= 1;
    }
    let mut out = Vec::new();
    write_log_header(&mut out, header.k, header.dims, header.segment, header.base)
        .expect("writing to a Vec cannot fail");
    for rec in &records {
        write_record(&mut out, rec).expect("writing to a Vec cannot fail");
    }
    out
}

fn add(layer: &mut BTreeMap<&'static str, f64>, name: &'static str, value: f64) {
    *layer.entry(name).or_insert(0.0) += value;
}

fn child<'a>(node: &'a SpanNode, name: &str) -> Option<&'a SpanNode> {
    node.children.iter().find(|c| c.name == name)
}

/// Adds one batch's engine span tree to the per-layer sums.
fn absorb_spans(layer: &mut BTreeMap<&'static str, f64>, root: &SpanNode) {
    add(layer, "pipeline.ingest_ms", root.total_ms);
    for (name, stage) in [
        ("pipeline.validate_ms", "validate"),
        ("pipeline.split_ms", "split"),
        ("pipeline.place_ms", "place"),
        ("pipeline.repair_ms", "repair"),
        ("pipeline.commit_ms", "commit"),
        ("refine.ms", "refine"),
    ] {
        add(layer, name, root.child_ms(stage));
    }
    if let Some(refine) = child(root, "refine") {
        for (name, stage) in [
            ("dynamic.compact_ms", "compact"),
            ("refine.rebalance_ms", "rebalance"),
            ("refine.gd_ms", "gd"),
            ("refine.recount_ms", "recount"),
        ] {
            add(layer, name, refine.child_ms(stage));
        }
    }
}

fn run_rep(
    w: &Workload,
    history: &History,
    seed: u64,
    traced: bool,
    scratch: bool,
    fault: Option<Fault>,
) -> Result<Rep, String> {
    let Setup {
        mut leader,
        follower,
        bootstrap_ms,
        setup_s,
    } = setup(w, history, seed)?;
    let replica = Replica::new(follower, leader.reader(), seed, w.bursts_per_record);
    let dims = leader.engine().graph().weights().dims();
    let eps_check = if fault == Some(Fault::Eps) {
        w.eps / 2.0
    } else {
        w.eps
    };
    let mut gen = BatchGen::new(history, seed);
    let mut ops = Ops::default();
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut ingest_ms = Vec::with_capacity(w.batches);
    let mut first_locality = 0.0;
    let (mut updates, mut stream_s) = (0u64, 0.0f64);
    let (mut refined, mut useful, mut arrivals, mut conflicts) = (0usize, 0usize, 0usize, 0usize);

    let replica = std::thread::scope(|scope| -> Result<Replica, String> {
        let (mut sink, worker) = if w.concurrent_replica() {
            let (tails, rx) = mpsc::channel();
            let (tx, acks) = mpsc::channel();
            let worker = scope.spawn(move || replica.serve(rx, tx));
            (Sink::Thread { tails, acks }, Some(worker))
        } else {
            (Sink::Inline(Box::new(replica)), None)
        };

        for b in 0..w.batches {
            let gen_start = Instant::now();
            let pending = gen.next(leader.engine(), &w.shape(b))?;
            add(&mut layer, "bench.batch_gen_ms", ms(gen_start.elapsed()));
            if let (Sink::Thread { acks, .. }, true) = (&sink, b > 0) {
                acks.recv()
                    .map_err(|_| "the replica thread hung up early".to_string())?;
            }

            let start = Instant::now();
            let result = leader.ingest(&pending.batch);
            let appended = Instant::now();
            let report = match result {
                Ok(report) => report,
                Err(e) => {
                    // The batch did not apply, so the generator's id
                    // predictions are void: end the repetition here.
                    ops.record(vec![format!("batch {b}: ingest failed: {e}")]);
                    break;
                }
            };
            let wall = appended - start;
            let mut log = leader.log_bytes().to_vec();
            if fault == Some(Fault::Diverge) && b == w.batches / 2 {
                log = corrupt_last_record(&log);
            }
            let shipped = Shipped { log, appended };
            match &mut sink {
                Sink::Thread { tails, .. } => tails
                    .send(shipped)
                    .map_err(|_| "the replica thread hung up early".to_string())?,
                Sink::Inline(replica) => {
                    replica.replay(&shipped);
                    replica.owed_bursts();
                }
            }

            ingest_ms.push(ms(wall));
            stream_s += wall.as_secs_f64();
            updates += (report.vertices_added
                + report.vertices_removed
                + report.edges_added
                + report.edges_removed
                + report.weight_updates) as u64;

            let mut errors = Vec::new();
            if let Err(e) = check_balance(leader.engine().store(), dims, eps_check) {
                errors.push(format!("batch {b}: {e}"));
            }
            if !leader.engine().read_view().verify_checksum() {
                errors.push(format!("batch {b}: the published view fails its checksum"));
            }
            if let Err(e) = gen.absorb(&pending, &report) {
                errors.push(format!("batch {b}: {e}"));
            }
            ops.record(errors);

            if b == 0 {
                first_locality = report.edge_locality;
            }
            refined += usize::from(report.refined);
            useful += usize::from(report.refined && report.refine_moves > 0);
            arrivals += report.vertices_added;
            conflicts += report.placement_conflicts;
            if traced {
                absorb_spans(&mut layer, &report.spans);
                add(
                    &mut layer,
                    "wire.append_ms",
                    ms(wall) - report.spans.total_ms,
                );
            }

            if w.rotate_every > 0 && (b + 1).is_multiple_of(w.rotate_every) {
                let start = Instant::now();
                leader
                    .rotate()
                    .map_err(|e| format!("batch {b}: log rotation failed: {e}"))?;
                let rotate = start.elapsed();
                stream_s += rotate.as_secs_f64();
                add(&mut layer, "replica.rotate_ms", ms(rotate));
                restore_check(&leader, traced, &mut layer, &mut ops);
            }
        }

        match (sink, worker) {
            (Sink::Thread { tails, acks }, Some(worker)) => {
                drop((tails, acks));
                worker
                    .join()
                    .map_err(|_| "the replica thread panicked".to_string())
            }
            (Sink::Inline(replica), _) => Ok(*replica),
            (Sink::Thread { .. }, None) => unreachable!("a thread sink always has a worker"),
        }
    })?;

    // End-of-stream audit: the replica holds the leader's assignment, the
    // maintained locality matches a recount, and no reader saw a stale epoch.
    let mut errors = Vec::new();
    let (lv, fv) = (leader.engine().read_view(), replica.follower().view());
    if lv.epoch() != fv.epoch() || lv.as_slice() != fv.as_slice() {
        errors.push("the replica's final view differs from the leader's".to_string());
    }
    let final_locality = match recount_locality(leader.engine()) {
        Ok(l) => l,
        Err(e) => {
            errors.push(e);
            leader.engine().store().edge_locality()
        }
    };
    let stale = leader.engine().store().stale_epoch_read_count();
    if stale > 0 {
        errors.push(format!(
            "{stale} lookups read an epoch their reader had not adopted"
        ));
    }
    ops.record(errors);

    let metrics = leader.metrics_mut();
    let mut counters: BTreeMap<&'static str, u64> =
        COUNTERS.iter().map(|&c| (c, metrics.counter(c))).collect();
    counters.insert(
        "core.gd.refine_iterations",
        metrics
            .summary("core.gd.refine_iterations")
            .map_or(0, |s| s.sum),
    );

    if traced {
        // Extensive quantities, summed over the traced repetitions and
        // reported per stream; `_`-prefixed keys are ratio components.
        let c = |name: &str| counters[name] as f64;
        let pairs = c("core.gd.pairs_applied")
            + c("core.gd.pairs_rejected_balance")
            + c("core.gd.pairs_rejected_cut")
            + c("core.gd.pairs_degenerate");
        let s = &replica.stats;
        for (name, value) in [
            ("core.gd.refine_iterations", c("core.gd.refine_iterations")),
            (
                "core.gd.grad_full_recomputes",
                c("core.gd.grad_full_recomputes"),
            ),
            ("core.gd.grad_delta_iters", c("core.gd.grad_delta_iters")),
            ("_pairs_applied", c("core.gd.pairs_applied")),
            ("_pairs", pairs),
            ("refine.passes", c("stream.refine.passes")),
            ("_refined", refined as f64),
            ("_batches", ingest_ms.len() as f64),
            ("_useful", useful as f64),
            ("refine.gd_moves", c("stream.refine.gd_moves")),
            ("refine.rebalance_moves", c("stream.refine.rebalance_moves")),
            ("dynamic.compact_merges", c("stream.compact.merges")),
            ("dynamic.compact_purges", c("stream.compact.purges")),
            ("_conflicts", conflicts as f64),
            ("_arrivals", arrivals as f64),
            (
                "pipeline.repair_spec_rounds",
                c("stream.repair.spec_rounds"),
            ),
            (
                "pipeline.split_parallel_ranges",
                c("stream.split.parallel_ranges"),
            ),
            ("_refresh_us", s.refresh_us),
            ("store.refreshes", s.refreshes as f64),
            ("store.view_swaps", c("stream.store.view_swaps")),
            (
                "store.stale_epoch_reads",
                c("stream.store.stale_epoch_reads"),
            ),
            ("wire.log_bytes", c("stream.log.bytes")),
            ("wire.replay_input_bytes", s.replay_input_bytes as f64),
            ("replica.replay_ms", s.replay_ms),
            ("replica.replay_wait_ms", s.wait_ms),
            ("snapshot.bytes", leader.snapshot_bytes().len() as f64),
        ] {
            layer.insert(name, value);
        }
    }

    if scratch {
        // The offline solver on the final live graph: the quality anchor
        // the incremental path is judged against.
        let (graph, weights, _) = leader.engine().graph().live_snapshot();
        let gd = GdPartitioner::new(leader.engine().config().gd.clone());
        let start = Instant::now();
        let partition = gd
            .partition(&graph, &weights, w.k, seed)
            .map_err(|e| format!("scratch solve failed: {e}"))?;
        layer.insert("core.scratch_solve_ms", ms(start.elapsed()));
        layer.insert("core.scratch_locality", partition.edge_locality(&graph));
    }

    Ok(Rep {
        stream: 0,
        traced,
        bootstrap_ms,
        setup_s,
        ingest_ms,
        updates,
        stream_s,
        first_locality,
        final_locality,
        checksum: leader.engine().read_view().checksum(),
        counters,
        serve: replica.stats,
        ops,
        layer,
    })
}

/// Restores the snapshot the leader just cut and requires the restored
/// assignment to equal the leader's. Traced repetitions also time a save
/// of the restored engine, which must reproduce the snapshot's bytes.
fn restore_check(
    leader: &Leader,
    traced: bool,
    layer: &mut BTreeMap<&'static str, f64>,
    ops: &mut Ops,
) {
    let bytes = leader.snapshot_bytes();
    let start = Instant::now();
    let restored = StreamingPartitioner::restore(bytes);
    add(layer, "snapshot.restore_ms", ms(start.elapsed()));
    let mut errors = Vec::new();
    match restored {
        Err(e) => errors.push(format!("restore failed: {e}")),
        Ok(mut restored) => {
            if restored.store().as_slice() != leader.engine().store().as_slice() {
                errors.push("the restored assignment differs from the saver's".to_string());
            }
            if traced {
                let mut saved = Vec::with_capacity(bytes.len());
                let start = Instant::now();
                let result = restored.save_snapshot(&mut saved);
                add(layer, "snapshot.save_ms", ms(start.elapsed()));
                match result {
                    Err(e) => errors.push(format!("snapshot save failed: {e}")),
                    Ok(_) if saved != bytes => {
                        errors.push("re-saving a restored engine changed its bytes".to_string())
                    }
                    Ok(_) => {}
                }
            }
        }
    }
    ops.record(errors);
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The per-batch figures of a stream: the fastest, batch by batch, of its
/// untraced repetitions (see [`REPEATS`]).
fn batch_fastest(reps: &[Rep], of: fn(&Rep) -> &[f64]) -> Vec<f64> {
    let mut by_stream: BTreeMap<usize, Vec<&[f64]>> = BTreeMap::new();
    for rep in reps.iter().filter(|r| !r.traced) {
        by_stream.entry(rep.stream).or_default().push(of(rep));
    }
    let mut out = Vec::new();
    for runs in by_stream.values() {
        let len = runs.iter().map(|r| r.len()).min().unwrap_or(0);
        out.extend((0..len).map(|b| runs.iter().map(|r| r[b]).fold(f64::INFINITY, f64::min)));
    }
    out
}

/// Runs one workload over its independent streams — each with its own
/// history graph (from the fixed corpus, see [`graph_seed`]) and its own
/// update stream and engine seed (derived from `seed`) — replaying them in
/// turn until the pass is complete and `seconds` have passed. A traced run
/// traces every stream and also runs the first few untraced, to measure
/// what the tracing costs.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let w = &opts.workload;
    let seeds: Vec<u64> = (0..w.streams).map(|i| stream_seed(opts.seed, i)).collect();
    let histories: Vec<History> = (0..w.streams)
        .map(|i| History::generate(graph_seed(i), w.n, w.future_arrivals()))
        .collect();
    // A measured run replays every stream REPEATS times, interleaved; a
    // traced run traces every stream once and replays the first quarter
    // untraced beside it, alternating which of the two goes first.
    let paired = if opts.trace { w.streams.div_ceil(4) } else { 0 };
    let mut pass: Vec<(usize, bool)> = Vec::new();
    if opts.trace {
        for i in 0..w.streams {
            match (i < paired, i % 2) {
                (true, 0) => pass.extend([(i, false), (i, true)]),
                (true, _) => pass.extend([(i, true), (i, false)]),
                (false, _) => pass.push((i, true)),
            }
        }
    } else {
        for _ in 0..REPEATS {
            pass.extend((0..w.streams).map(|i| (i, false)));
        }
    }

    // One untimed repetition first, so that the timed ones find the
    // processor busy and the caches and allocator warm. Its outputs are
    // still checked.
    let mut warmup = run_rep(w, &histories[0], seeds[0], false, false, opts.fault)?;
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < pass.len() || started.elapsed().as_secs_f64() < opts.seconds {
        let (stream, traced) = pass[reps.len() % pass.len()];
        let scratch = traced && stream < paired && reps.len() < pass.len();
        let mut rep = run_rep(
            w,
            &histories[stream],
            seeds[stream],
            traced,
            scratch,
            opts.fault,
        )?;
        rep.stream = stream;
        reps.push(rep);
    }

    let mut out = Outcome {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        notes: Vec::new(),
    };
    for rep in std::iter::once(&mut warmup).chain(&mut reps) {
        out.attempted += rep.ops.attempted + rep.serve.ops;
        out.failed += rep.ops.failed + rep.serve.failed;
        out.errors.append(&mut rep.ops.errors);
        out.errors.append(&mut rep.serve.errors);
    }
    // Determinism: a stream replayed again must end in the same published
    // view with the same counters.
    let mut first: BTreeMap<usize, &Rep> = BTreeMap::new();
    for rep in reps.iter().chain(std::iter::once(&warmup)) {
        match first.get(&rep.stream) {
            None => {
                first.insert(rep.stream, rep);
            }
            Some(f) if f.checksum != rep.checksum || f.counters != rep.counters => {
                out.failed += 1;
                out.errors.push(format!(
                    "stream {} ended in a different state when replayed",
                    rep.stream
                ));
            }
            Some(_) => {}
        }
    }
    let firsts: Vec<&Rep> = first.into_values().collect();
    let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for rep in &firsts {
        for (name, value) in &rep.counters {
            *counters.entry(name).or_insert(0) += value;
        }
        digest = (digest ^ rep.checksum).wrapping_mul(0x0100_0000_01b3);
    }
    let final_locality = mean(&firsts.iter().map(|r| r.final_locality).collect::<Vec<_>>());
    out.notes.push(format!(
        "{}: seed {}, {} streams of {} batches, {} repetitions, threads {}, replica {}",
        w.name,
        opts.seed,
        w.streams,
        w.batches,
        reps.len(),
        w.threads(),
        if w.concurrent_replica() {
            "on its own thread"
        } else {
            "inline"
        },
    ));
    out.notes.push(format!(
        "final view checksums: digest {digest:#018x} [{}]",
        firsts
            .iter()
            .map(|r| format!("{:#018x}", r.checksum))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.notes.push(format!(
        "counters (summed over streams): {}",
        counters
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let setup_s: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let ingest_of = |traced: bool, streams: usize| -> Vec<f64> {
        reps.iter()
            .filter(|r| r.traced == traced && r.stream < streams)
            .flat_map(|r| r.ingest_ms.iter().copied())
            .collect()
    };

    if opts.trace {
        let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
        let sum = |name: &str| -> f64 {
            traced
                .iter()
                .map(|r| r.layer.get(name).copied().unwrap_or(0.0))
                .sum()
        };
        let ratio = |num: &str, den: &str| {
            let d = sum(den);
            if d > 0.0 {
                sum(num) / d
            } else {
                0.0
            }
        };
        let mut layer: BTreeMap<&str, f64> = PER_LAYER
            .iter()
            .map(|&(name, _)| (name, sum(name) / traced.len() as f64))
            .collect();
        let scratch: Vec<&Rep> = traced
            .iter()
            .copied()
            .filter(|r| r.layer.contains_key("core.scratch_solve_ms"))
            .collect();
        for name in ["core.scratch_solve_ms", "core.scratch_locality"] {
            layer.insert(
                name,
                mean(&scratch.iter().map(|r| r.layer[name]).collect::<Vec<_>>()),
            );
        }
        let bursts: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.serve.burst_ns.iter().copied())
            .collect();
        let (plain, timed) = (
            median(&ingest_of(false, paired)),
            median(&ingest_of(true, paired)),
        );
        for (name, value) in [
            (
                "core.bootstrap_ms",
                median(&reps.iter().map(|r| r.bootstrap_ms).collect::<Vec<_>>()),
            ),
            (
                "core.gd.pair_accept_ratio",
                ratio("_pairs_applied", "_pairs"),
            ),
            ("refine.trigger_ratio", ratio("_refined", "_batches")),
            ("refine.useful_pass_ratio", ratio("_useful", "_refined")),
            ("placement.conflict_ratio", ratio("_conflicts", "_arrivals")),
            ("store.lookup_burst_ns", median(&bursts)),
            ("store.refresh_us", ratio("_refresh_us", "store.refreshes")),
            ("bench.trace_overhead_pct", (timed / plain - 1.0) * 100.0),
        ] {
            layer.insert(name, value);
        }
        out.metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layer[name], unit))
            .collect();
        return Ok(out);
    }

    let ingest = batch_fastest(&reps, |r| &r.ingest_ms);
    let lags = batch_fastest(&reps, |r| &r.serve.lag_ms);
    // Lookup latency from the owed bursts, position by position the fastest
    // of a stream's repetitions, like ingest; throughput from every burst.
    let bursts = batch_fastest(&reps, |r| &r.serve.owed_ns);
    let all_bursts: usize = reps.iter().map(|r| r.serve.burst_ns.len()).sum();
    // Per stream: its updates over the time its fastest repetition took.
    let updates: u64 = firsts.iter().map(|r| r.updates).sum();
    let stream_s: f64 = (0..w.streams)
        .map(|i| {
            reps.iter()
                .filter(|r| r.stream == i)
                .map(|r| r.stream_s)
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    let lookups: u64 = reps.iter().map(|r| r.serve.lookups).sum();
    let burst_s: f64 = reps.iter().map(|r| r.serve.burst_s).sum();
    let (batch_tail, burst_tail) = (w.batch_tail(), w.burst_tail());
    out.notes.push(format!(
        "samples: {} set-ups, {} batches and {} replays (per batch the fastest of {REPEATS} \
         repetitions, tail p{batch_tail}), {} bursts of {} lookups, {} of them owed after replays \
         (per position the fastest of {REPEATS} repetitions: {}, tail p{burst_tail})",
        setup_s.len(),
        ingest.len(),
        lags.len(),
        all_bursts,
        crate::serve::BURST,
        reps.iter().map(|r| r.serve.owed_ns.len()).sum::<usize>(),
        bursts.len(),
    ));
    // The long-horizon trend: first against last batches, over the streams.
    let head_tail = |from: usize, to: usize| {
        mean(
            &firsts
                .iter()
                .flat_map(|r| r.ingest_ms.iter().skip(from).take(to - from))
                .copied()
                .collect::<Vec<_>>(),
        )
    };
    out.notes.push(format!(
        "trend: locality {:.4} after the first batch, {:.4} after the last; ingest {:.2} ms \
         over the first 5 batches, {:.2} ms over the last 5",
        mean(&firsts.iter().map(|r| r.first_locality).collect::<Vec<_>>()),
        final_locality,
        head_tail(0, 5),
        head_tail(w.batches.saturating_sub(5), w.batches),
    ));
    let values = [
        median(&setup_s),
        median(&ingest),
        percentile(&ingest, batch_tail),
        updates as f64 / stream_s,
        final_locality,
        peak_rss_mb()?,
        lookups as f64 / burst_s,
        median(&bursts),
        percentile(&bursts, burst_tail),
        median(&lags),
        percentile(&lags, batch_tail),
    ];
    out.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    Ok(out)
}
