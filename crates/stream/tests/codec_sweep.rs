//! Every decoder at every byte: a single-bit flip anywhere in a snapshot
//! or a batch-log segment must be rejected with a named error (never a
//! panic, never `Ok`), and every strict prefix must read as a named
//! truncation — except a log prefix ending exactly on a record boundary,
//! which is a shorter, valid log. (The resume trailer gets the same sweep
//! in `mdbgp_bench::resume`.)

use mdbgp_graph::{gen, VertexWeights};
use mdbgp_stream::wire::{read_log_header, read_record, write_log_header, write_record};
use mdbgp_stream::{
    LogRecord, SnapshotError, StreamConfig, StreamingPartitioner, UpdateBatch, ViewEpoch, WireError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A tiny engine with one churn batch behind it, so the snapshot carries
/// tombstones, a free list and arrivals.
fn tiny_snapshot() -> Vec<u8> {
    let cg = gen::community_graph(
        &gen::CommunityGraphConfig::social(60),
        &mut StdRng::seed_from_u64(11),
    );
    let w = VertexWeights::vertex_edge(&cg.graph);
    let mut cfg = StreamConfig::new(2, 0.1);
    cfg.gd.iterations = 10;
    cfg.compact_slack = 0.9;
    let mut sp = StreamingPartitioner::bootstrap(cg.graph, w, cfg).expect("bootstrap");
    let mut batch = UpdateBatch::new();
    batch.remove_vertex(40);
    batch.remove_edge(1, 2);
    batch.add_vertex(vec![1.0, 2.0], vec![3, 4]);
    batch.set_weight(5, 1, 3.5);
    sp.ingest(&batch).expect("ingest");
    let mut bytes = Vec::new();
    sp.save_snapshot(&mut bytes).expect("save");
    bytes
}

fn restore(bytes: &[u8]) -> Result<StreamingPartitioner, SnapshotError> {
    StreamingPartitioner::restore(bytes)
}

/// A 3-record log segment and the byte offsets where each record ends
/// (the first entry is the end of the header).
fn log_segment() -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let base = ViewEpoch {
        id_epoch: 1,
        batch_seq: 4,
    };
    write_log_header(&mut bytes, 4, 2, 0, base).unwrap();
    let mut boundaries = vec![bytes.len()];
    let mut first = UpdateBatch::new();
    first.add_vertex(vec![1.0, 2.0], vec![0, 7]);
    first.add_edge(3, 9);
    let mut second = UpdateBatch::new();
    second.remove_edge(3, 9);
    second.set_weight(2, 0, 0.5);
    let mut third = UpdateBatch::new();
    third.remove_vertex(7);
    for (i, batch) in [first, second, third].into_iter().enumerate() {
        let record = LogRecord {
            stamp: ViewEpoch {
                id_epoch: 1,
                batch_seq: 5 + i as u64,
            },
            view_checksum: 0x5EED + i as u64,
            batch,
        };
        write_record(&mut bytes, &record).unwrap();
        boundaries.push(bytes.len());
    }
    (bytes, boundaries)
}

fn read_log(mut bytes: &[u8]) -> Result<usize, WireError> {
    read_log_header(&mut bytes)?;
    let mut records = 0;
    while read_record(&mut bytes)?.is_some() {
        records += 1;
    }
    Ok(records)
}

#[test]
fn snapshot_rejects_every_flip_and_every_prefix() {
    let bytes = tiny_snapshot();
    restore(&bytes).expect("the unbroken snapshot restores");
    for at in 0..bytes.len() {
        for bit in 0..8 {
            let mut broken = bytes.clone();
            broken[at] ^= 1 << bit;
            match restore(&broken) {
                Ok(_) => panic!("flip of bit {bit} at byte {at} restored"),
                Err(SnapshotError::Io { .. }) => {
                    panic!("flip of bit {bit} at byte {at} reported I/O on an in-memory reader")
                }
                Err(_) => {}
            }
        }
    }
    for cut in 0..bytes.len() {
        match restore(&bytes[..cut]) {
            Err(SnapshotError::Truncated { .. }) => {}
            Err(e) => panic!("prefix of {cut} bytes: {e}"),
            Ok(_) => panic!("prefix of {cut} bytes restored"),
        }
    }
}

#[test]
fn log_rejects_every_flip_and_every_torn_prefix() {
    let (bytes, boundaries) = log_segment();
    assert_eq!(read_log(&bytes).unwrap(), 3);
    for at in 0..bytes.len() {
        for bit in 0..8 {
            let mut broken = bytes.clone();
            broken[at] ^= 1 << bit;
            match read_log(&broken) {
                Ok(n) => panic!("flip of bit {bit} at byte {at} read as {n} records"),
                Err(WireError::Io { .. }) => {
                    panic!("flip of bit {bit} at byte {at} reported I/O on an in-memory reader")
                }
                Err(_) => {}
            }
        }
    }
    for cut in 0..bytes.len() {
        match (
            read_log(&bytes[..cut]),
            boundaries.iter().position(|&b| b == cut),
        ) {
            (Ok(n), Some(records)) => assert_eq!(n, records, "prefix of {cut} bytes"),
            (Err(WireError::Truncated { .. }), None) => {}
            (other, _) => panic!("prefix of {cut} bytes: {other:?}"),
        }
    }
}
