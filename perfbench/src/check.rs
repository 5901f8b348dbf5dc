//! Correctness checks the benchmark applies to the program's outputs,
//! computed independently of the engine's own bookkeeping.

use mdbgp_stream::{PartitionStore, StreamingPartitioner};

/// Every part's load within `(1 + eps)` of the per-part average, in every
/// weight dimension, over the store's live totals.
pub fn check_balance(store: &PartitionStore, dims: usize, eps: f64) -> Result<(), String> {
    let k = store.num_parts();
    for j in 0..dims {
        let avg = store.total(j) / k as f64;
        if avg <= 0.0 {
            continue;
        }
        for p in 0..k as u32 {
            let over = store.load(p, j) / avg - 1.0;
            if over > eps + 1e-9 {
                return Err(format!(
                    "part {p} is {:.3}% over the average in dimension {j} (ε = {:.3}%)",
                    over * 100.0,
                    eps * 100.0
                ));
            }
        }
    }
    Ok(())
}

/// Recounts edge locality from the live graph and the published partition
/// and requires it to equal the store's incrementally maintained figure.
/// Returns the recounted locality.
pub fn recount_locality(engine: &StreamingPartitioner) -> Result<f64, String> {
    let (graph, _, live_ids) = engine.graph().live_snapshot();
    let parts = engine.store().as_slice();
    let (mut intra, mut cut) = (0usize, 0usize);
    for v in 0..graph.num_vertices() {
        let pv = parts[live_ids[v] as usize];
        for &u in graph.neighbors(v as u32) {
            if u as usize > v {
                if parts[live_ids[u as usize] as usize] == pv {
                    intra += 1;
                } else {
                    cut += 1;
                }
            }
        }
    }
    let recounted = if intra + cut == 0 {
        1.0
    } else {
        intra as f64 / (intra + cut) as f64
    };
    let maintained = engine.store().edge_locality();
    if recounted == maintained {
        Ok(recounted)
    } else {
        Err(format!(
            "recounted locality {recounted} ({intra} intra / {cut} cut) differs from the \
             store's {maintained}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbgp_graph::{Partition, VertexWeights};

    #[test]
    fn an_overloaded_part_fails_the_balance_check() {
        // Four unit-weight vertices, three of them in part 0 of k = 2:
        // part 0 carries 1.5x the average.
        let weights = VertexWeights::unit(4);
        let store = PartitionStore::new(&Partition::new(vec![0, 0, 0, 1], 2), &weights);
        let err = check_balance(&store, 1, 0.05).unwrap_err();
        assert!(err.contains("part 0"), "{err}");
        assert!(check_balance(&store, 1, 0.6).is_ok());
        let even = PartitionStore::new(&Partition::new(vec![0, 1, 0, 1], 2), &weights);
        assert!(check_balance(&even, 1, 0.0).is_ok());
    }
}
