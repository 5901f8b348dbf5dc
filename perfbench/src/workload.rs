//! The three workloads: one update-stream shape each, all driven through
//! the same leader + replica deployment. Why each exists and which layer
//! it loads is recorded in `BENCHMARK.json` and `perfbench/README.md`.

use crate::gen::Shape;

#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Bootstrap vertices.
    pub n: usize,
    /// Batches per repetition: the stream horizon.
    pub batches: usize,
    pub k: usize,
    pub eps: f64,
    /// Whether the leader's engine gets a worker pool of every core the
    /// benchmark may use ([`max_threads`]) instead of one thread.
    pub pooled: bool,
    /// Whether the replica serves lookups on a thread of its own while the
    /// leader ingests (reads beside writes). Otherwise it replays and serves
    /// between batches, and the leader's ingest runs alone.
    pub concurrent_reader: bool,
    /// Lookup bursts the replica serves after each replay, before it takes
    /// the next log tail (a concurrent reader also bursts while it waits).
    /// Sets how many burst samples a run is guaranteed, and so the burst
    /// tail percentile.
    pub bursts_per_record: usize,
    /// Shape of even-numbered batches (and of every batch when `shrink`
    /// is `None`).
    pub grow: Shape,
    /// Shape of odd-numbered batches: net-shrinking, so tombstones outlive
    /// arrival-id recycling and purges happen inside ingest.
    pub shrink: Option<Shape>,
    pub compact_slack: Option<f64>,
    /// Rotate the log (with a fresh snapshot) every this many batches;
    /// 0 never.
    pub rotate_every: usize,
    /// Independent streams (history graph, update stream, engine seed) a
    /// run measures. Stream dynamics differ a lot from one stream to the
    /// next, so a run pools several; the tail percentiles are fixed from
    /// this count.
    pub streams: usize,
}

/// Times a measured run replays each stream, spread over the run. Its
/// per-batch figures are the fastest of these repetitions: the speed of a
/// shared host swings within seconds, and a slow spell seldom covers the
/// same batch in all three.
pub const REPEATS: usize = 3;

/// Threads the benchmark may keep busy: the machine's cores, at most two.
pub fn max_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

impl Workload {
    pub fn all() -> [Workload; 3] {
        [
            // The CI churn leg, run long enough that refine's growth and
            // the locality decay show.
            Workload {
                name: "churn-long",
                n: 5_000,
                batches: 40,
                k: 8,
                eps: 0.05,
                pooled: false,
                concurrent_reader: false,
                bursts_per_record: 2,
                grow: Shape {
                    arrivals: 100,
                    extra_edges: 75,
                    drift: 38,
                    edge_removals: 15,
                    vertex_removals: 20,
                },
                shrink: None,
                compact_slack: None,
                rotate_every: 0,
                streams: 16,
            },
            // Placement-bound: large arrival batches, little drift, no
            // churn, many parts; the only workload on the parallel paths.
            Workload {
                name: "arrivals-k32",
                n: 20_000,
                batches: 12,
                k: 32,
                eps: 0.1,
                pooled: true,
                concurrent_reader: false,
                // Few, long batches: more bursts each, so that the burst
                // tail rests on more than a dozen samples beyond it.
                bursts_per_record: 8,
                grow: Shape {
                    arrivals: 3000,
                    extra_edges: 100,
                    drift: 30,
                    edge_removals: 0,
                    vertex_removals: 0,
                },
                shrink: None,
                compact_slack: None,
                rotate_every: 0,
                streams: 6,
            },
            // Churn and purge with log rotation: the only workload that
            // cuts snapshots and restores them mid-stream.
            Workload {
                name: "serve-replicate",
                n: 5_000,
                batches: 40,
                k: 8,
                eps: 0.05,
                pooled: false,
                concurrent_reader: true,
                bursts_per_record: 2,
                grow: Shape {
                    arrivals: 100,
                    extra_edges: 100,
                    drift: 30,
                    edge_removals: 40,
                    vertex_removals: 40,
                },
                shrink: Some(Shape {
                    arrivals: 12,
                    extra_edges: 100,
                    drift: 30,
                    edge_removals: 40,
                    vertex_removals: 62,
                }),
                compact_slack: Some(0.05),
                rotate_every: 4,
                streams: 12,
            },
        ]
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name == name)
    }

    /// The same stream at a size small enough for a smoke test.
    pub fn tiny(mut self) -> Self {
        let scale = |s: &mut Shape| {
            for x in [
                &mut s.arrivals,
                &mut s.extra_edges,
                &mut s.drift,
                &mut s.edge_removals,
                &mut s.vertex_removals,
            ] {
                *x = x.div_ceil(10);
            }
        };
        self.n /= 10;
        self.batches = 8;
        self.streams = 2;
        scale(&mut self.grow);
        if let Some(s) = &mut self.shrink {
            scale(s);
        }
        self
    }

    /// Shape of batch `b` (0-based).
    pub fn shape(&self, b: usize) -> Shape {
        match self.shrink {
            Some(s) if b.is_multiple_of(2) => s,
            _ => self.grow,
        }
    }

    /// Leader engine worker pool.
    pub fn threads(&self) -> usize {
        if self.pooled {
            max_threads()
        } else {
            1
        }
    }

    /// Whether the replica runs on a thread of its own beside the leader:
    /// when the workload asks for a concurrent reader and the leader's pool
    /// leaves a core free. Otherwise it takes each tail inline, between
    /// batches, so that the benchmark never keeps more threads busy than
    /// [`max_threads`].
    pub fn concurrent_replica(&self) -> bool {
        self.concurrent_reader && self.threads() < max_threads()
    }

    /// History vertices the stream will need beyond the bootstrap prefix.
    pub fn future_arrivals(&self) -> usize {
        (0..self.batches).map(|b| self.shape(b).arrivals).sum()
    }

    /// Tail percentile of the per-batch samples (ingest latency, replay
    /// lag: one fastest-of-repetitions sample per stream and batch), fixed
    /// from their count.
    pub fn batch_tail(&self) -> f64 {
        crate::stats::tail_percentile(self.batches * self.streams)
    }

    /// Tail percentile of the per-burst lookup samples (the bursts owed
    /// after each replay: one fastest-of-repetitions sample per stream,
    /// batch and position), fixed from their count.
    pub fn burst_tail(&self) -> f64 {
        crate::stats::tail_percentile(self.batches * self.streams * self.bursts_per_record)
    }
}
