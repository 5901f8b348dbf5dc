//! The benchmark's one workload generator. Every workload replays a
//! seeded community history graph: the first `n` vertices are the
//! bootstrap snapshot, and each batch brings arrivals (with their backward
//! edges into the history), extra edges between existing vertices, a
//! weight-drift spike on shard 0 and, under churn, edge and vertex
//! removals. Id bookkeeping across purges is `mdbgp_bench::churn`'s.
//!
//! The engine only ever sees the generated [`UpdateBatch`]es; the
//! generator reads the engine (shard membership, live graph) but never
//! mutates it.

use mdbgp_bench::churn::{predict_arrival_ids, queue_removals, verify_arrival_ids, IdTracker};
use mdbgp_graph::{gen, Graph, InducedSubgraph, VertexWeights};
use mdbgp_stream::{BatchReport, StreamingPartitioner, UpdateBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of stream `i` of a run seeded with `seed` (SplitMix64 finalizer,
/// so neighbouring seeds give unrelated streams).
pub fn stream_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the history graph of stream `i`. The graphs are a fixed corpus,
/// the same for every run seed, like a dataset: the run seed draws each
/// stream's updates and engine seed. Drawing the graphs from the run seed
/// as well made the refinement work of a run vary twice as much from one
/// seed to the next.
pub fn graph_seed(i: usize) -> u64 {
    stream_seed(0x6D64_6267_7073_0001, i)
}

/// What one batch carries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Shape {
    pub arrivals: usize,
    pub extra_edges: usize,
    /// Weight updates concentrated on shard 0 (a hot-shard spike, so
    /// balance erodes and refinement runs).
    pub drift: usize,
    pub edge_removals: usize,
    pub vertex_removals: usize,
}

/// The seeded history graph and the bootstrap snapshot cut from it.
pub struct History {
    full: Graph,
    pub boot: Graph,
    pub boot_weights: VertexWeights,
}

impl History {
    /// A social-model community graph of `n + future_arrivals` vertices;
    /// its first `n` vertices form the bootstrap snapshot.
    pub fn generate(seed: u64, n: usize, future_arrivals: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = gen::CommunityGraphConfig::social(n + future_arrivals);
        let full = gen::community_graph(&cfg, &mut rng).graph;
        let prefix: Vec<u32> = (0..n as u32).collect();
        let boot = InducedSubgraph::extract(&full, &prefix).graph;
        let boot_weights = VertexWeights::vertex_edge(&boot);
        History {
            full,
            boot,
            boot_weights,
        }
    }
}

/// A batch ready to submit, plus what the generator needs to check the
/// engine's report against its own prediction.
pub struct Pending {
    pub batch: UpdateBatch,
    end: u32,
}

/// Assembles the batch stream of one repetition. Deterministic in the
/// seed and the engine states it is shown.
pub struct BatchGen<'a> {
    history: &'a History,
    tracker: IdTracker,
    rng: StdRng,
    arrived: u32,
}

impl<'a> BatchGen<'a> {
    pub fn new(history: &'a History, seed: u64) -> Self {
        let n = history.boot.num_vertices();
        BatchGen {
            history,
            tracker: IdTracker::identity(n),
            rng: StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
            arrived: n as u32,
        }
    }

    /// Assembles the next batch against the engine's current state.
    pub fn next(
        &mut self,
        engine: &StreamingPartitioner,
        shape: &Shape,
    ) -> Result<Pending, String> {
        let full = &self.history.full;
        let arrived = self.arrived;
        let end = arrived + shape.arrivals as u32;
        if end as usize > full.num_vertices() {
            return Err("the history graph has no vertices left to arrive".into());
        }
        let mut batch = UpdateBatch::new();
        // Arrival ids are predicted from the engine's free list so that
        // same-batch co-arrival edges resolve; `absorb` verifies them.
        let predicted = predict_arrival_ids(engine.graph(), shape.arrivals);
        for v in arrived..end {
            let backward: Vec<u32> = full
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| u < v)
                .filter_map(|u| self.tracker.current(u))
                .collect();
            let degree_weight = backward.len().max(1) as f64;
            batch.add_vertex(vec![1.0, degree_weight], backward);
            self.tracker.push(predicted[(v - arrived) as usize]);
        }
        for _ in 0..shape.extra_edges {
            let u = self.tracker.current(self.rng.gen_range(0..arrived));
            let v = self.tracker.current(self.rng.gen_range(0..arrived));
            if let (Some(u), Some(v)) = (u, v) {
                batch.add_edge(u, v);
            }
        }
        if shape.drift > 0 {
            // The uncounted store lookup: the generator must not show up
            // in the serving counters it is measuring.
            let store = engine.store();
            let shard0: Vec<u32> = (0..arrived)
                .filter_map(|o| self.tracker.current(o))
                .filter(|&c| store.shard_of(c) == 0)
                .collect();
            if shard0.is_empty() {
                return Err("shard 0 is empty; cannot apply the drift spike".into());
            }
            for _ in 0..shape.drift {
                let v = shard0[self.rng.gen_range(0..shard0.len())];
                batch.set_weight(v, 0, self.rng.gen_range(1.5..3.0));
            }
        }
        if shape.edge_removals + shape.vertex_removals > 0 {
            queue_removals(
                &mut batch,
                engine.graph(),
                &mut self.tracker,
                &mut self.rng,
                shape.edge_removals,
                shape.vertex_removals,
            );
        }
        self.arrived = end;
        Ok(Pending { batch, end })
    }

    /// Folds the engine's report into the id bookkeeping and checks that
    /// the engine assigned the arrival ids the generator predicted.
    pub fn absorb(&mut self, pending: &Pending, report: &BatchReport) -> Result<(), String> {
        if let Some(remap) = &report.remap {
            self.tracker.apply_remap(remap);
        }
        verify_arrival_ids(&self.tracker, pending.end, &report.arrival_ids)
    }
}
