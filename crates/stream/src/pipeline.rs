//! The staged ingest pipeline: the data carried between
//! [`crate::StreamingPartitioner::ingest`]'s stages, and the two stages
//! that place a batch's arrivals.
//!
//! A batch flows through six named stages:
//!
//! 1. **validate** — the whole batch is checked against the current state
//!    (plus a simulation of the ids the batch itself will create), so
//!    ingestion is all-or-nothing;
//! 2. **split** — updates are applied to the [`crate::DynamicGraph`] in
//!    order, but arrivals are *not* placed: they are collected as
//!    `PendingArrival`s, and every store-side effect that touches a
//!    pending arrival is parked in a `DeferredEffect` ledger (effects
//!    between already-assigned vertices apply immediately, as before);
//! 3. **speculative placement** (`speculative_place`) — arrivals are
//!    scored in fixed-size chunks against a frozen [`LoadSnapshot`], each
//!    chunk holding its own capacity [`ReservationLedger`]; chunks run
//!    concurrently on the worker pool, and because the chunk boundaries
//!    depend only on the batch (never the thread count), the speculative
//!    decisions are identical at any thread count;
//! 4. **conflict repair** (`conflict_repair`) — chunk-local reservations
//!    are merged, oversubscribed `(part, dimension)` slots are detected,
//!    and the losers (stable order: later arrival index evicts first,
//!    earlier arrivals keep their slot) are re-placed. Large loser sets go
//!    through *speculative repair rounds*: the evicted arrivals are
//!    re-scored concurrently in arrival-order chunks against the merged
//!    post-eviction ledger, their placements re-merged in chunk order and
//!    re-checked, iterating towards a fixpoint under a bounded round
//!    count; a small loser set — or one that survives every speculative
//!    round — falls back to the original serial re-placement loop, whose
//!    never-evict-twice rule guarantees termination;
//! 5. **commit** — assignments land in the [`PartitionStore`]
//!    (`push_assignment_collect` / `assign_slot_collect` staging their
//!    heap pushes for a parallel `apply_heap_entries`, `push_tombstone`)
//!    and the deferred ledger settles against the now-final parts;
//! 6. **refine** — compaction, the drift check and (when triggered) the
//!    rebalance + warm-started pairwise GD pass, unchanged.
//!
//! Stages 3–4 replace the per-vertex serial placement loop that used to be
//! the last serial stretch of the hot path. The split is the classic
//! speculate-then-repair design for parallel streaming placement (LDG-style
//! greedy placement parallelizes well when capacity conflicts are repaired
//! after the fact); determinism is **by construction**, not by locking:
//! every input to every decision — the snapshot, the chunk boundaries, the
//! merged reservations, the eviction order — is a pure function of the
//! engine state and the batch.

use crate::dynamic::DynamicGraph;
use crate::placement::{LdgPlacer, ReservationLedger, ReservedView};
use crate::store::{LoadSnapshot, PartitionStore};
use crate::TOMBSTONE;
use mdbgp_core::parallel;
use mdbgp_graph::VertexId;
use std::collections::HashMap;

/// Arrivals per speculative chunk. Fixed (never derived from the thread
/// count) so that chunk-local decisions are identical whether one worker
/// processes every chunk or sixteen steal them; small enough that a
/// moderate batch still fans out, large enough that a chunk amortizes its
/// reservation ledger.
pub const SPECULATIVE_CHUNK: usize = 128;

/// Loser sets at or below this size are re-placed serially: a handful of
/// evictions costs less to walk in order than to fan out, and the serial
/// loop's never-evict-twice rule is also what guarantees the repair
/// fixpoint terminates.
pub const REPAIR_SERIAL_THRESHOLD: usize = 32;

/// Upper bound on speculative repair rounds per batch. Speculative rounds
/// never mark an arrival as finally repaired (a speculative re-placement
/// can itself oversubscribe a slot and be evicted again), so the round
/// count — not a per-arrival rule — bounds the concurrent phase; once
/// exhausted, the serial fallback finishes the job.
pub const MAX_SPEC_ROUNDS: usize = 8;

/// Wall-clock milliseconds of each ingest stage, derived per batch from
/// the span tree in [`crate::BatchReport::spans`] via
/// [`crate::BatchReport::timings`] so a perf regression localizes to a
/// stage instead of disappearing into one ingest total. A *view* over the
/// spans — not independently measured — so the flat numbers and the tree
/// can never drift apart. Span trees (and therefore these timings) are
/// excluded from `BatchReport` equality — two semantically identical
/// batches never share wall-clocks.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    pub validate_ms: f64,
    pub split_ms: f64,
    pub place_ms: f64,
    pub repair_ms: f64,
    pub commit_ms: f64,
    pub refine_ms: f64,
}

impl StageTimings {
    /// Total ingest wall-clock across the stages.
    pub fn total_ms(&self) -> f64 {
        self.validate_ms
            + self.split_ms
            + self.place_ms
            + self.repair_ms
            + self.commit_ms
            + self.refine_ms
    }

    /// Projects a per-batch ingest span tree (root `"ingest"`, one child
    /// per stage) onto the flat stage totals. A stage with no span — e.g.
    /// `refine` on a batch that didn't trigger — reads 0.
    pub fn from_spans(root: &mdbgp_obs::SpanNode) -> Self {
        Self {
            validate_ms: root.child_ms("validate"),
            split_ms: root.child_ms("split"),
            place_ms: root.child_ms("place"),
            repair_ms: root.child_ms("repair"),
            commit_ms: root.child_ms("commit"),
            refine_ms: root.child_ms("refine"),
        }
    }
}

/// One arriving vertex between the split and commit stages.
#[derive(Clone, Debug)]
pub(crate) struct PendingArrival {
    /// Engine vertex id — recycled off the free list or extending the id
    /// space; already live in the graph, not yet in the store.
    pub id: VertexId,
    /// Weight row at arrival time — what placement scores with. Weight
    /// drift later in the same batch is committed with the final row.
    pub row: Vec<f64>,
    /// Removed again later in the same batch: never placed; when the id
    /// was fresh its slot commits as a tombstone to keep store and graph
    /// id spaces aligned.
    pub dead: bool,
}

/// A store-side effect the split stage cannot apply yet because it touches
/// an arrival that has no assignment until commit. Settled against the
/// final parts; an add and its matching remove classify identically, so
/// cancelled pairs net to zero.
#[derive(Clone, Copy, Debug)]
pub(crate) enum DeferredEffect {
    EdgeAdded(VertexId, VertexId),
    EdgeRemoved(VertexId, VertexId),
}

/// Everything the split stage hands to placement, repair and commit.
#[derive(Default)]
pub(crate) struct SplitOutcome {
    /// Arrivals in batch order (which is also id-assignment order).
    pub arrivals: Vec<PendingArrival>,
    /// Vertex id → index into `arrivals`, live pending arrivals only.
    pub arrival_of: HashMap<VertexId, usize>,
    /// Store effects deferred to commit.
    pub ledger: Vec<DeferredEffect>,
    pub vertices_added: usize,
    pub vertices_removed: usize,
    pub edges_added: usize,
    pub edges_removed: usize,
    pub weight_updates: usize,
}

/// Counts the placed neighbours of pending arrival `v` into `counts`:
/// pre-batch assignments from the store, co-arrival assignments through
/// `arrival_part` (which stage-dependently exposes chunk-local or global
/// speculative placements).
fn count_neighbors(
    counts: &mut [usize],
    graph: &DynamicGraph,
    store: &PartitionStore,
    split: &SplitOutcome,
    v: VertexId,
    arrival_part: impl Fn(usize) -> Option<u32>,
) {
    counts.iter_mut().for_each(|c| *c = 0);
    for u in graph.neighbors(v) {
        // Pending arrivals first: a recycled arrival id would otherwise
        // read its slot's stale TOMBSTONE out of the store.
        if let Some(&ai) = split.arrival_of.get(&u) {
            if let Some(p) = arrival_part(ai) {
                counts[p as usize] += 1;
            }
        } else if (u as usize) < store.num_vertices() {
            let p = store.shard_of(u);
            if p != TOMBSTONE {
                counts[p as usize] += 1;
            }
        }
    }
}

/// Stage 3 — speculative parallel placement. Chunks of arrivals are placed
/// concurrently against the frozen `snapshot` (pre-fetched by the engine —
/// under the snapshot cache it is typically the exact allocation the last
/// published [`crate::ReadView`] carries); each chunk reserves capacity
/// locally and sees the speculative parts of its *own* earlier arrivals
/// (chunk-local affinity), never another chunk's. Returns the chosen part
/// per arrival ([`TOMBSTONE`] for one removed in its own batch), the
/// merged reservations of every chunk (the repair stage's starting global
/// view), the snapshot, and the batch-wide per-dimension capacities
/// `(1 + ε) · (frozen total + arriving weight) / k` that stages 3–4 share.
pub(crate) fn speculative_place(
    graph: &DynamicGraph,
    store: &PartitionStore,
    split: &SplitOutcome,
    snapshot: LoadSnapshot,
    epsilon: f64,
    threads: usize,
) -> (Vec<u32>, ReservationLedger, LoadSnapshot, Vec<f64>) {
    let k = store.num_parts();
    let dims = graph.weights().dims();
    let mut caps: Vec<f64> = (0..dims).map(|j| snapshot.total(j)).collect();
    for a in split.arrivals.iter().filter(|a| !a.dead) {
        for (j, &w) in a.row.iter().enumerate() {
            caps[j] += w;
        }
    }
    for cap in &mut caps {
        *cap = (1.0 + epsilon) * *cap / k as f64;
    }

    let bounds = parallel::fixed_boundaries(split.arrivals.len(), SPECULATIVE_CHUNK);
    let ranges: Vec<std::ops::Range<usize>> = bounds.windows(2).map(|w| w[0]..w[1]).collect();
    // A single chunk cannot use chunk-level parallelism; hand the threads
    // to the per-part scoring sweep instead (it engages for large k).
    let placer = LdgPlacer::new(epsilon).with_threads(if ranges.len() <= 1 { threads } else { 1 });
    let chunk_results = parallel::par_map(&ranges, threads, |_, range| {
        let mut ledger = ReservationLedger::new(k, dims);
        let mut local = vec![TOMBSTONE; range.len()];
        let mut counts = vec![0usize; k];
        for (off, i) in range.clone().enumerate() {
            let arrival = &split.arrivals[i];
            if arrival.dead {
                continue;
            }
            count_neighbors(&mut counts, graph, store, split, arrival.id, |ai| {
                // Only this chunk's earlier arrivals are visible.
                if (range.start..i).contains(&ai) {
                    Some(local[ai - range.start]).filter(|&p| p != TOMBSTONE)
                } else {
                    None
                }
            });
            let view = ReservedView {
                snapshot: &snapshot,
                ledger: &ledger,
            };
            let part = placer.place_with(k, &view, &caps, &counts, &arrival.row);
            ledger.reserve(part, &arrival.row);
            local[off] = part;
        }
        (local, ledger)
    });
    let mut parts = Vec::with_capacity(split.arrivals.len());
    let mut merged = ReservationLedger::new(k, dims);
    for (local, ledger) in chunk_results {
        parts.extend(local);
        merged.merge(&ledger);
    }
    (parts, merged, snapshot, caps)
}

/// Stage 4 — deterministic conflict repair. Merges every chunk's
/// reservations, finds `(part, dimension)` slots the speculative stage
/// oversubscribed, and re-places the losers: per oversubscribed part the
/// arrivals are walked in arrival order and the earliest prefix that fits
/// under the capacity keeps its slot — so which arrivals lose never
/// depends on chunk scheduling, only on the batch.
///
/// Loser sets larger than [`REPAIR_SERIAL_THRESHOLD`] are re-placed in
/// *speculative rounds* (at most [`MAX_SPEC_ROUNDS`] per batch): the
/// evicted arrivals — already back in arrival order — are chunked with the
/// same batch-derived [`SPECULATIVE_CHUNK`] boundaries as stage 3 and
/// re-scored concurrently, each chunk against a clone of the post-eviction
/// global ledger, seeing every kept placement plus its *own* chunk's
/// earlier re-placements; the chunk placements are then replayed onto the
/// global ledger in arrival order and the loop re-detects. Every input to
/// a speculative decision is a pure function of the batch, so the rounds
/// are identical at any thread count. Speculative re-placements stay
/// evictable (two chunks can re-oversubscribe a slot they could not see
/// each other filling), which is why the round count is bounded.
///
/// Small loser sets — and whatever survives the bounded rounds — go
/// through the serial fallback: losers are re-placed one at a time in
/// arrival order with full knowledge of every prior decision; a loser
/// that fits nowhere falls back to the least-loaded part exactly like
/// serial LDG overflow, and is never evicted again, which bounds the
/// loop. Returns `(evictions, repair passes, speculative rounds)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conflict_repair(
    graph: &DynamicGraph,
    store: &PartitionStore,
    split: &SplitOutcome,
    mut ledger: ReservationLedger,
    snapshot: &LoadSnapshot,
    caps: &[f64],
    parts: &mut [u32],
    epsilon: f64,
    threads: usize,
) -> (usize, usize, usize) {
    let k = store.num_parts();
    let dims = snapshot.dims();
    // Tolerance: strictly looser than the placement feasibility check
    // (`fullness <= 1`), so a placement the scorer accepted is never
    // re-detected as a conflict and the loop cannot flip-flop.
    let fits = |load: f64, j: usize| load <= caps[j] * (1.0 + 1e-12);
    let placer = LdgPlacer::new(epsilon).with_threads(threads);
    let mut repaired = vec![false; split.arrivals.len()];
    let mut conflicts = 0usize;
    let mut passes = 0usize;
    let mut spec_rounds = 0usize;
    loop {
        // Detect, then evict the stable losers of each oversubscribed part.
        let mut by_part: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (i, a) in split.arrivals.iter().enumerate() {
            if !a.dead && parts[i] != TOMBSTONE {
                by_part[parts[i] as usize].push(i); // arrival order
            }
        }
        let mut evicted: Vec<usize> = Vec::new();
        let mut kept = vec![0.0f64; dims];
        for p in 0..k as u32 {
            let over = (0..dims).any(|j| !fits(snapshot.load(p, j) + ledger.reserved(p, j), j));
            if !over {
                continue;
            }
            kept.iter_mut().for_each(|l| *l = 0.0);
            for &i in &by_part[p as usize] {
                let row = &split.arrivals[i].row;
                if repaired[i] {
                    // Already re-placed once (possibly via the overflow
                    // fallback); it keeps its slot unconditionally.
                    for (j, &w) in row.iter().enumerate() {
                        kept[j] += w;
                    }
                    continue;
                }
                let ok = (0..dims).all(|j| fits(snapshot.load(p, j) + kept[j] + row[j], j));
                if ok {
                    for (j, &w) in row.iter().enumerate() {
                        kept[j] += w;
                    }
                } else {
                    evicted.push(i);
                }
            }
        }
        if evicted.is_empty() {
            break;
        }
        passes += 1;
        conflicts += evicted.len();
        evicted.sort_unstable(); // across parts, back into arrival order
        for &i in &evicted {
            ledger.release(parts[i], &split.arrivals[i].row);
            parts[i] = TOMBSTONE;
        }
        if evicted.len() > REPAIR_SERIAL_THRESHOLD && spec_rounds < MAX_SPEC_ROUNDS {
            // Speculative round: re-score the losers concurrently in
            // arrival-order chunks, then replay in arrival order.
            spec_rounds += 1;
            let bounds = parallel::fixed_boundaries(evicted.len(), SPECULATIVE_CHUNK);
            let ranges: Vec<std::ops::Range<usize>> =
                bounds.windows(2).map(|w| w[0]..w[1]).collect();
            let chunk_placer =
                LdgPlacer::new(epsilon).with_threads(if ranges.len() <= 1 { threads } else { 1 });
            let evicted_ref = &evicted;
            let parts_view: &[u32] = parts;
            let base_ledger = &ledger;
            let chunk_results = parallel::par_map(&ranges, threads, |_, range| {
                let mut chunk_ledger = base_ledger.clone();
                let mut local = vec![TOMBSTONE; range.len()];
                let mut counts = vec![0usize; k];
                for (off, e) in range.clone().enumerate() {
                    let i = evicted_ref[e];
                    let arrival = &split.arrivals[i];
                    count_neighbors(&mut counts, graph, store, split, arrival.id, |ai| {
                        // Kept placements plus this chunk's own earlier
                        // re-placements; other chunks' speculative choices
                        // are invisible, so the round never depends on
                        // chunk scheduling. `evicted` is sorted, so the
                        // chunk's earlier losers are searchable.
                        if let Ok(prior) = evicted_ref[range.start..e].binary_search(&ai) {
                            Some(local[prior]).filter(|&p| p != TOMBSTONE)
                        } else {
                            Some(parts_view[ai]).filter(|&p| p != TOMBSTONE)
                        }
                    });
                    let view = ReservedView {
                        snapshot,
                        ledger: &chunk_ledger,
                    };
                    let part = chunk_placer.place_with(k, &view, caps, &counts, &arrival.row);
                    chunk_ledger.reserve(part, &arrival.row);
                    local[off] = part;
                }
                local
            });
            for (local, range) in chunk_results.into_iter().zip(ranges) {
                for (off, e) in range.enumerate() {
                    let i = evicted[e];
                    let part = local[off];
                    ledger.reserve(part, &split.arrivals[i].row);
                    parts[i] = part;
                    // Not `repaired`: a speculative re-placement may lose
                    // again next round.
                }
            }
            continue;
        }
        let mut counts = vec![0usize; k];
        for &i in &evicted {
            let arrival = &split.arrivals[i];
            count_neighbors(&mut counts, graph, store, split, arrival.id, |ai| {
                // Full knowledge: every kept or already re-placed arrival.
                Some(parts[ai]).filter(|&p| p != TOMBSTONE)
            });
            let view = ReservedView {
                snapshot,
                ledger: &ledger,
            };
            let part = placer.place_with(k, &view, caps, &counts, &arrival.row);
            ledger.reserve(part, &arrival.row);
            parts[i] = part;
            repaired[i] = true;
        }
    }
    (conflicts, passes, spec_rounds)
}
