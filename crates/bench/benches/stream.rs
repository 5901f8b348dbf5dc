//! Streaming-subsystem micro-benchmarks: batch ingestion (placement only),
//! ingestion with a forced refinement, and the from-scratch GD solve the
//! incremental path replaces.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use mdbgp_bench::churn::IdTracker;
use mdbgp_bench::workload::{bootstrap_prefix, stream_config, Generator, Mix};
use mdbgp_core::GdPartitioner;
use mdbgp_graph::{gen, Partitioner};
use mdbgp_stream::{StreamConfig, StreamingPartitioner, UpdateBatch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const N: usize = 8_000;
const ARRIVALS: usize = 200;
const K: usize = 4;
const EPS: f64 = 0.05;

fn config() -> StreamConfig {
    stream_config(K, EPS, 1, 42)
}

/// A bootstrapped engine and one batch of `ARRIVALS` arrivals (with their
/// backward edges) from the same community history.
fn setup() -> (StreamingPartitioner, UpdateBatch) {
    let mut rng = StdRng::seed_from_u64(9);
    let history = gen::community_graph(&gen::CommunityGraphConfig::social(N + ARRIVALS), &mut rng);
    let (boot, weights) = bootstrap_prefix(&history.graph, N);
    let sp = StreamingPartitioner::bootstrap(boot, weights, config()).unwrap();
    let mut gen = Generator::new(history.graph, rng, IdTracker::identity(N));
    let arrivals = Mix {
        arrivals: ARRIVALS,
        ..Mix::default()
    };
    let batch = gen.next_batch(&sp, &arrivals).unwrap();
    (sp, batch)
}

/// `StreamingPartitioner` deliberately does not implement `Clone` (it is a
/// stateful service); rebuild from the same bootstrap state instead.
fn rebuild(sp: &StreamingPartitioner) -> StreamingPartitioner {
    let graph = sp.graph().snapshot();
    let weights = sp.graph().weights().clone();
    StreamingPartitioner::from_partition(graph, weights, &sp.partition(), config()).unwrap()
}

fn bench_stream(c: &mut Criterion) {
    let (sp0, batch) = setup();

    let mut group = c.benchmark_group("stream");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ARRIVALS as u64));

    group.bench_function("ingest_batch", |b| {
        b.iter_batched(
            || rebuild(&sp0),
            |mut sp| sp.ingest(black_box(&batch)).unwrap(),
            BatchSize::LargeInput,
        )
    });

    group.bench_function("ingest_plus_refine", |b| {
        b.iter_batched(
            || rebuild(&sp0),
            |mut sp| {
                sp.ingest(black_box(&batch)).unwrap();
                sp.refine_now().unwrap()
            },
            BatchSize::LargeInput,
        )
    });

    // The offline alternative the incremental path replaces.
    let mut sp_full = rebuild(&sp0);
    sp_full.ingest(&batch).unwrap();
    let snapshot = sp_full.graph().snapshot();
    let weights = sp_full.graph().weights().clone();
    group.bench_function("scratch_gd_solve", |b| {
        b.iter(|| {
            GdPartitioner::new(config().gd)
                .partition(black_box(&snapshot), black_box(&weights), K, 3)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_stream);
criterion_main!(benches);
