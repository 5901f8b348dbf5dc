//! The stream benches' shared workload: flag parsing, the history graph
//! and bootstrap configuration, and the batch generator every stream bin
//! (`stream_online`, `stream_serve`, `stream_replicate`) and
//! `mdbgp_cli stream` replay.
//!
//! A run replays a history graph: its first `n` vertices are the
//! bootstrap snapshot, and each batch brings arrivals (with their
//! backward edges into the history), extra edges between existing
//! vertices, a weight-drift spike on shard 0 and removals. [`Shape`]
//! fixes how those counts vary from batch to batch; [`Generator`] turns a
//! batch's [`Mix`] into an [`UpdateBatch`], scripting in original history
//! ids through [`crate::churn`]'s id tracking. The random draws happen in
//! a fixed order (extra edges, drift, removals), so a seed names one
//! stream.

use crate::churn::{predict_arrival_ids, queue_removals, verify_arrival_ids, IdTracker};
use crate::perfgate::{check_regression, PerfRecord};
use crate::policies::timed;
use mdbgp_core::{GdConfig, GdPartitioner};
use mdbgp_graph::{gen, Graph, InducedSubgraph, Partitioner, VertexWeights};
use mdbgp_obs::MetricsRegistry;
use mdbgp_stream::{BatchReport, ReadHandle, StreamConfig, StreamingPartitioner, UpdateBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

/// A command-line error, naming the flag at fault.
#[derive(Clone, Debug, PartialEq)]
pub enum FlagError {
    /// An argument where a `--flag` was expected.
    NotAFlag(String),
    /// A trailing `--flag` without a value.
    MissingValue(String),
    /// A flag given twice.
    Duplicate(String),
    /// Flags the command does not read (typos, mostly).
    Unknown(Vec<String>),
    /// A required flag that was not given.
    Missing(String),
    /// A value that does not parse or is out of range.
    Invalid { flag: String, reason: String },
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotAFlag(arg) => write!(f, "expected --flag, got '{arg}'"),
            Self::MissingValue(flag) => write!(f, "--{flag} needs a value"),
            Self::Duplicate(flag) => write!(f, "--{flag} given more than once"),
            Self::Unknown(flags) => {
                let list: Vec<String> = flags.iter().map(|k| format!("--{k}")).collect();
                write!(f, "unknown flag(s): {}", list.join(", "))
            }
            Self::Missing(flag) => write!(f, "missing --{flag}"),
            Self::Invalid { flag, reason } => write!(f, "--{flag}: {reason}"),
        }
    }
}

impl std::error::Error for FlagError {}

impl From<FlagError> for String {
    fn from(e: FlagError) -> Self {
        e.to_string()
    }
}

/// `--key value` pairs. Each read marks its flag as known, and
/// [`Self::finish`] rejects whatever was given but never read, so a typo
/// fails the run instead of silently falling back to a default.
#[derive(Debug, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
    read: RefCell<BTreeSet<String>>,
}

impl Flags {
    /// Parses `--key value` pairs; a flag given twice is an error.
    pub fn parse(argv: &[String]) -> Result<Self, FlagError> {
        let mut values = BTreeMap::new();
        let mut args = argv.iter();
        while let Some(arg) = args.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| FlagError::NotAFlag(arg.clone()))?;
            let value = args
                .next()
                .ok_or_else(|| FlagError::MissingValue(key.to_string()))?;
            if values.insert(key.to_string(), value.clone()).is_some() {
                return Err(FlagError::Duplicate(key.to_string()));
            }
        }
        Ok(Self {
            values,
            read: RefCell::default(),
        })
    }

    /// Parses the process arguments after the program name.
    pub fn from_env() -> Result<Self, FlagError> {
        Self::parse(&std::env::args().skip(1).collect::<Vec<_>>())
    }

    /// The value of `--key`, if given.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.read.borrow_mut().insert(key.to_string());
        self.values.get(key).map(String::as_str)
    }

    /// The value of a required `--key`.
    pub fn req(&self, key: &str) -> Result<&str, FlagError> {
        self.opt(key)
            .ok_or_else(|| FlagError::Missing(key.to_string()))
    }

    /// `--key` parsed as `T`, or `default` when absent.
    pub fn num<T: FromStr>(&self, key: &str, default: T) -> Result<T, FlagError> {
        match self.opt(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| FlagError::Invalid {
                flag: key.to_string(),
                reason: format!("cannot parse '{v}'"),
            }),
        }
    }

    /// Rejects every given flag that was never read.
    pub fn finish(&self) -> Result<(), FlagError> {
        let read = self.read.borrow();
        let unknown: Vec<String> = self
            .values
            .keys()
            .filter(|k| !read.contains(*k))
            .cloned()
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(FlagError::Unknown(unknown))
        }
    }
}

fn invalid(flag: &str, reason: String) -> FlagError {
    FlagError::Invalid {
        flag: flag.to_string(),
        reason,
    }
}

/// How batch contents vary over a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Every batch is alike: full arrivals, extra edges and drift, with
    /// `churn` of the extra edges and arrivals removed again.
    Uniform,
    /// Even batches grow like [`Shape::Uniform`]; odd batches shrink:
    /// arrivals cut to an eighth and vertex removals above the arrival
    /// count, so tombstones outlive arrival-id recycling and purging
    /// compactions fire mid-run.
    GrowShrink,
}

/// What one batch carries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Mix {
    pub arrivals: usize,
    pub extra_edges: usize,
    /// Weight updates concentrated on shard 0 (a hot-shard spike, so
    /// balance erodes and refinement runs).
    pub drift: usize,
    pub edge_removals: usize,
    pub vertex_removals: usize,
}

impl Mix {
    /// Whether batch `batch_no` (1-based) of a [`Shape::GrowShrink`] run
    /// shrinks.
    pub fn shrinks(batch_no: usize) -> bool {
        batch_no % 2 == 1
    }
}

/// The flags every stream bench shares.
#[derive(Clone, Debug)]
pub struct StreamArgs {
    pub n: usize,
    pub batches: usize,
    pub arrivals: usize,
    pub extra_edges: usize,
    pub drift: usize,
    pub churn: f64,
    pub k: usize,
    pub eps: f64,
    pub seed: u64,
    pub threads: usize,
    pub json_out: Option<String>,
    pub metrics_out: Option<String>,
    pub check_against: Option<String>,
    pub max_regress: f64,
}

/// Per-bin defaults of the workload flags.
#[derive(Clone, Copy, Debug)]
pub struct Defaults {
    pub n: usize,
    pub batches: usize,
    pub arrivals: usize,
    pub extra_edges: usize,
    pub drift: usize,
    pub churn: f64,
}

impl Defaults {
    /// The serving legs' churn-and-purge stream (`stream_serve`,
    /// `stream_replicate`).
    pub const GROW_SHRINK: Defaults = Defaults {
        n: 20_000,
        batches: 8,
        arrivals: 400,
        extra_edges: 400,
        drift: 120,
        churn: 0.4,
    };
}

impl fmt::Display for StreamArgs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} (+{} arrivals/batch x {} batches), k={}, eps={}, threads={}, churn={}",
            self.n, self.arrivals, self.batches, self.k, self.eps, self.threads, self.churn
        )
    }
}

impl StreamArgs {
    /// Reads the shared flags.
    pub fn parse(flags: &Flags, d: Defaults) -> Result<Self, FlagError> {
        let churn = flags.num("churn", d.churn)?;
        if !(0.0..1.0).contains(&churn) {
            return Err(invalid("churn", format!("must be in [0, 1), got {churn}")));
        }
        let threads = flags.num("threads", 1)?;
        if threads == 0 {
            return Err(invalid("threads", "must be positive".into()));
        }
        Ok(Self {
            n: flags.num("n", d.n)?,
            batches: flags.num("batches", d.batches)?,
            arrivals: flags.num("arrivals", d.arrivals)?,
            extra_edges: flags.num("extra-edges", d.extra_edges)?,
            drift: flags.num("drift", d.drift)?,
            churn,
            k: flags.num("k", 8)?,
            eps: flags.num("eps", 0.05)?,
            seed: flags.num("seed", 42)?,
            threads,
            json_out: flags.opt("json-out").map(String::from),
            metrics_out: flags.opt("metrics-out").map(String::from),
            check_against: flags.opt("check-against").map(String::from),
            max_regress: flags.num("max-regress", 0.30)?,
        })
    }

    /// Writes the record to `--json-out`, if given.
    pub fn write_record(&self, record: &PerfRecord) -> Result<(), String> {
        match &self.json_out {
            Some(path) => write_output("json-out", path, &record.to_json()),
            None => Ok(()),
        }
    }

    /// Writes the full metrics dump to `--metrics-out`, if given.
    pub fn write_metrics(&self, m: &MetricsRegistry) -> Result<(), String> {
        match &self.metrics_out {
            Some(path) => write_output("metrics-out", path, &render_metrics(m, path)),
            None => Ok(()),
        }
    }

    /// Gates the record against the `--check-against` baseline, if given,
    /// and returns that baseline.
    pub fn gate(&self, record: &PerfRecord) -> Result<Option<PerfRecord>, String> {
        let Some(path) = &self.check_against else {
            return Ok(None);
        };
        let baseline = PerfRecord::load(path)?;
        check_regression(record, &baseline, self.max_regress)
            .map_err(|e| format!("perf gate: {e}"))?;
        Ok(Some(baseline))
    }

    /// The engine configuration of a run.
    pub fn config(&self) -> StreamConfig {
        stream_config(self.k, self.eps, self.threads, self.seed)
    }

    /// What batch `batch_no` (1-based) carries under `shape`.
    pub fn mix(&self, shape: Shape, batch_no: usize) -> Mix {
        let churned = |count: usize| (count as f64 * self.churn) as usize;
        let mut mix = Mix {
            arrivals: self.arrivals,
            extra_edges: self.extra_edges,
            drift: self.drift,
            edge_removals: churned(self.extra_edges),
            vertex_removals: churned(self.arrivals),
        };
        if shape == Shape::GrowShrink && Mix::shrinks(batch_no) {
            mix.arrivals = self.arrivals / 8;
            mix.vertex_removals = mix.arrivals + self.arrivals / 2;
        }
        mix
    }

    /// Generates the community history graph (the run's first draws from
    /// the seeded RNG), bootstraps `cfg` on its first `n` vertices
    /// (printing its wall-clock and quality), and returns the engine and
    /// the generator that continues from the same RNG.
    pub fn bootstrap(&self, cfg: StreamConfig) -> (StreamingPartitioner, Generator) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let total_n = self.n + self.batches * self.arrivals;
        let history = gen::community_graph(&gen::CommunityGraphConfig::social(total_n), &mut rng);
        let (graph, weights) = bootstrap_prefix(&history.graph, self.n);
        let (sp, elapsed) = timed(|| {
            StreamingPartitioner::bootstrap(graph, weights, cfg)
                .expect("bootstrap partition failed")
        });
        println!(
            "bootstrap: {:.2}s, locality {:.1}%, imbalance {:.2}%",
            elapsed.as_secs_f64(),
            sp.store().edge_locality() * 100.0,
            sp.max_imbalance() * 100.0
        );
        let gen = Generator::new(history.graph, rng, IdTracker::identity(self.n));
        (sp, gen)
    }
}

/// The engine configuration the stream benches and the CLI replay use:
/// `k` shards at balance `eps`, a 60-iteration GD solve, and `threads`
/// workers for both the engine and its GD solves (a scratch reference
/// solved with the same [`StreamConfig::gd`] then runs at the same thread
/// count as the incremental path it normalizes).
pub fn stream_config(k: usize, eps: f64, threads: usize, seed: u64) -> StreamConfig {
    let mut cfg = StreamConfig::new(k, eps).with_threads(threads);
    cfg.gd = GdConfig {
        iterations: 60,
        threads,
        ..GdConfig::with_epsilon(eps)
    };
    cfg.seed = seed;
    cfg
}

/// The bootstrap snapshot: the subgraph induced by the first `n0` history
/// vertices, weighted by vertex count and degree.
pub fn bootstrap_prefix(history: &Graph, n0: usize) -> (Graph, VertexWeights) {
    let prefix: Vec<u32> = (0..n0 as u32).collect();
    let boot = InducedSubgraph::extract(history, &prefix).graph;
    let weights = VertexWeights::vertex_edge(&boot);
    (boot, weights)
}

/// Turns batch mixes into update batches against a live engine,
/// addressing it in original history ids.
pub struct Generator {
    history: Graph,
    rng: StdRng,
    tracker: IdTracker,
    /// Original-id end of the batch awaiting its report.
    pending_end: Option<u32>,
}

impl Generator {
    /// A generator over `history` whose first `tracker.len()` vertices
    /// have already been streamed.
    pub fn new(history: Graph, rng: StdRng, tracker: IdTracker) -> Self {
        Self {
            history,
            rng,
            tracker,
            pending_end: None,
        }
    }

    /// History vertices streamed so far (bootstrap prefix included).
    pub fn arrived(&self) -> usize {
        self.tracker.len()
    }

    /// History vertices not streamed yet.
    pub fn remaining(&self) -> usize {
        self.history.num_vertices() - self.arrived()
    }

    /// The original → current id map.
    pub fn tracker(&self) -> &IdTracker {
        &self.tracker
    }

    /// Follows a purge made outside a batch (e.g. `StreamingPartitioner::purge`).
    pub fn apply_remap(&mut self, remap: &[u32]) {
        self.tracker.apply_remap(remap);
    }

    /// Assembles the next batch: `mix.arrivals` history vertices with
    /// their backward edges, extra edges between already-streamed
    /// vertices, the shard-0 drift spike, then removals sampled from the
    /// live graph. Arrival ids are predicted from the engine's free list
    /// (so same-batch co-arrival edges resolve) and checked against the
    /// report in [`Self::absorb`].
    pub fn next_batch(
        &mut self,
        engine: &StreamingPartitioner,
        mix: &Mix,
    ) -> Result<UpdateBatch, String> {
        if mix.arrivals > self.remaining() {
            return Err(format!(
                "history graph exhausted: {} arrivals requested, {} left",
                mix.arrivals,
                self.remaining()
            ));
        }
        let arrived = self.arrived() as u32;
        let end = arrived + mix.arrivals as u32;
        let mut batch = UpdateBatch::new();
        let predicted = predict_arrival_ids(engine.graph(), mix.arrivals);
        for (v, &id) in (arrived..end).zip(&predicted) {
            let backward: Vec<u32> = self
                .history
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| u < v)
                .filter_map(|u| self.tracker.current(u))
                .collect();
            let degree_weight = backward.len().max(1) as f64;
            batch.add_vertex(vec![1.0, degree_weight], backward);
            self.tracker.push(id);
        }
        for _ in 0..mix.extra_edges {
            let u = self.tracker.current(self.rng.gen_range(0..arrived));
            let v = self.tracker.current(self.rng.gen_range(0..arrived));
            if let (Some(u), Some(v)) = (u, v) {
                batch.add_edge(u, v);
            }
        }
        // Correlated activity spike: uniform drift cancels out in
        // expectation and never crosses the trigger band. Members are
        // collected up front: rejection sampling would hang, not fail,
        // should the shard ever end up empty.
        if mix.drift > 0 {
            let shard0: Vec<u32> = (0..arrived)
                .filter_map(|o| self.tracker.current(o))
                .filter(|&c| engine.shard_of(c) == 0)
                .collect();
            if shard0.is_empty() {
                return Err("shard 0 is empty; cannot apply the drift spike".into());
            }
            for _ in 0..mix.drift {
                let v = shard0[self.rng.gen_range(0..shard0.len())];
                batch.set_weight(v, 0, self.rng.gen_range(1.5..3.0));
            }
        }
        queue_removals(
            &mut batch,
            engine.graph(),
            &mut self.tracker,
            &mut self.rng,
            mix.edge_removals,
            mix.vertex_removals,
        );
        self.pending_end = Some(end);
        Ok(batch)
    }

    /// Follows the engine's report of the last generated batch: applies
    /// its purge remap and verifies the predicted arrival ids.
    pub fn absorb(&mut self, report: &BatchReport) -> Result<(), String> {
        let end = self
            .pending_end
            .take()
            .ok_or("absorb called without a generated batch")?;
        if let Some(remap) = &report.remap {
            self.tracker.apply_remap(remap);
        }
        verify_arrival_ids(&self.tracker, end, &report.arrival_ids)
    }
}

/// A from-scratch GD solve of an engine's current live graph.
pub struct ScratchSolve {
    pub elapsed: Duration,
    pub locality: f64,
    pub imbalance: f64,
}

/// Solves `engine`'s live graph from scratch with `gd` (building the
/// snapshot is not charged to the solver).
pub fn scratch_solve(
    engine: &StreamingPartitioner,
    gd: &GdConfig,
    k: usize,
    seed: u64,
) -> ScratchSolve {
    let (snapshot, weights, _) = engine.graph().live_snapshot();
    let (partition, elapsed) = timed(|| {
        GdPartitioner::new(gd.clone())
            .partition(&snapshot, &weights, k, seed)
            .expect("scratch partition failed")
    });
    ScratchSolve {
        elapsed,
        locality: partition.edge_locality(&snapshot),
        imbalance: partition.max_imbalance(&weights),
    }
}

/// A full metrics dump for `path`: Prometheus text for `.prom`/`.txt`,
/// the JSON `metrics_check` validates otherwise.
pub fn render_metrics(m: &MetricsRegistry, path: &str) -> String {
    if path.ends_with(".prom") || path.ends_with(".txt") {
        m.render_text()
    } else {
        m.render_json()
    }
}

/// Writes an output file, naming the flag it came from on failure.
pub fn write_output(flag: &str, path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write --{flag} {path}: {e}"))?;
    println!("wrote --{flag} -> {path}");
    Ok(())
}

/// A run's acceptance bars: fails with the message of every check that
/// did not pass (one `FAIL:` line each).
pub fn acceptance(checks: impl IntoIterator<Item = (bool, String)>) -> Result<(), String> {
    let failures: Vec<String> = checks
        .into_iter()
        .filter(|(passed, _)| !passed)
        .map(|(_, failure)| failure)
        .collect();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\nFAIL: "))
    }
}

/// A bench bin's `main`: parses the process flags with `parse`, rejects
/// any flag `parse` never read, then runs. A flag error prints `usage`;
/// a failed run prints `FAIL: …`. Either exits non-zero.
pub fn bin_main<A>(
    usage: &str,
    parse: impl FnOnce(&Flags) -> Result<A, String>,
    run: impl FnOnce(&A) -> Result<(), String>,
) -> ExitCode {
    let args = Flags::from_env().map_err(String::from).and_then(|flags| {
        let args = parse(&flags)?;
        flags.finish()?;
        Ok(args)
    });
    let result = match args {
        Ok(args) => run(&args).map_err(|e| format!("FAIL: {e}")),
        Err(e) => Err(format!("error: {e}\n{usage}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// One serving burst through `h`, the way a remote reader runs it: pin the
/// newest published view (verifying its checksum and adopting a new id
/// epoch), then look up `lookups` ids drawn from the pinned view's id
/// space by the LCG `state`. Returns whether the newly pinned view was
/// torn, and how many lookups were served.
pub fn lookup_burst(h: &mut ReadHandle, state: &mut u64, lookups: usize) -> (bool, u64) {
    let mut torn = false;
    if h.refresh() {
        torn = !h.view().verify_checksum();
        if h.needs_adoption() {
            h.adopt();
        }
    }
    let n = h.view().num_vertices();
    if n == 0 {
        return (torn, 0);
    }
    for _ in 0..lookups {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Tombstoned ids answer None; both are valid.
        let _ = h.lookup(((*state >> 33) as usize % n) as u32);
    }
    (torn, lookups as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(line: &str) -> Result<Flags, FlagError> {
        Flags::parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    const DEFAULTS: Defaults = Defaults {
        n: 400,
        batches: 6,
        arrivals: 40,
        extra_edges: 40,
        drift: 10,
        churn: 0.0,
    };

    #[test]
    fn flags_reject_unknown_and_duplicated_flags() {
        let f = flags("--followers 2 --folowers 7 --snapshot-evry 1").unwrap();
        assert_eq!(f.num("followers", 1).unwrap(), 2);
        let unknown = FlagError::Unknown(vec!["folowers".into(), "snapshot-evry".into()]);
        assert_eq!(f.finish(), Err(unknown.clone()));
        assert_eq!(
            unknown.to_string(),
            "unknown flag(s): --folowers, --snapshot-evry"
        );
        let dup = flags("--k 4 --k 8").unwrap_err();
        assert_eq!(dup.to_string(), "--k given more than once");
        assert_eq!(flags("k").unwrap_err(), FlagError::NotAFlag("k".into()));
        assert_eq!(
            flags("--k").unwrap_err(),
            FlagError::MissingValue("k".into())
        );
        // Reading a flag that was not given still marks it known.
        let f = flags("--n 10").unwrap();
        assert_eq!(f.num("n", 1usize).unwrap(), 10);
        assert_eq!(f.num("k", 3usize).unwrap(), 3);
        assert_eq!(f.req("input"), Err(FlagError::Missing("input".into())));
        assert!(f.finish().is_ok());
        // A malformed value names its flag.
        let err = flags("--eps x").unwrap().num("eps", 0.1).unwrap_err();
        assert_eq!(err.to_string(), "--eps: cannot parse 'x'");
    }

    #[test]
    fn stream_args_validate_ranges() {
        let parse = |line| StreamArgs::parse(&flags(line).unwrap(), DEFAULTS);
        let err = parse("--churn 1.5").unwrap_err();
        assert_eq!(err.to_string(), "--churn: must be in [0, 1), got 1.5");
        let err = parse("--threads 0").unwrap_err();
        assert_eq!(err.to_string(), "--threads: must be positive");
        let args = parse("--arrivals 400 --churn 0.4").unwrap();
        let grow = args.mix(Shape::GrowShrink, 2);
        assert_eq!((grow.arrivals, grow.vertex_removals), (400, 160));
        let shrink = args.mix(Shape::GrowShrink, 1);
        assert_eq!((shrink.arrivals, shrink.vertex_removals), (50, 250));
        assert_eq!(args.mix(Shape::Uniform, 1), grow);
    }

    #[test]
    fn generator_tracks_ids_across_purging_batches() {
        let args = StreamArgs::parse(&flags("--k 4 --churn 0.4").unwrap(), DEFAULTS).unwrap();
        let mut cfg = args.config();
        cfg.gd.iterations = 10;
        cfg.compact_slack = 0.05;
        let (mut sp, mut gen) = args.bootstrap(cfg);
        let mut last = None;
        for batch_no in 1..=args.batches {
            let mix = args.mix(Shape::GrowShrink, batch_no);
            let report = sp.ingest(&gen.next_batch(&sp, &mix).unwrap()).unwrap();
            gen.absorb(&report).unwrap();
            last = Some(report);
        }
        assert!(sp.telemetry().remaps > 0, "the shrinking batches purge");
        assert!(gen.absorb(&last.unwrap()).is_err(), "one report per batch");
        let too_many = Mix {
            arrivals: gen.remaining() + 1,
            ..Mix::default()
        };
        assert!(gen.next_batch(&sp, &too_many).is_err());
    }
}
