//! `mdbgp_cli` — command-line front end for the whole workspace.
//!
//! ```text
//! mdbgp_cli generate  --model community --n 50000 --output g.txt
//! mdbgp_cli partition --input g.txt --algo gd --k 8 --eps 0.03 \
//!                     --dims unit,degree --output parts.txt
//! mdbgp_cli evaluate  --input g.txt --partition parts.txt --dims unit,degree
//! ```
//!
//! Graph formats: `text` (SNAP edge list), `metis`, `binary` (selected by
//! `--format`, default `text`). Partitions are one part id per line.

use mdbgp_baselines::{
    BlpPartitioner, HashPartitioner, MetisPartitioner, ShpPartitioner, SpinnerPartitioner,
};
use mdbgp_bench::churn::IdTracker;
use mdbgp_bench::resume::{read_trailer, write_trailer, ResumeState};
use mdbgp_bench::workload::{bootstrap_prefix, render_metrics, stream_config, Generator, Mix};
use mdbgp_core::{GdConfig, GdPartitioner, KWayGdPartitioner};
use mdbgp_graph::gen;
use mdbgp_graph::{io as gio, Graph, Partition, Partitioner, VertexWeights, WeightKind};
use mdbgp_stream::{SnapshotExpectation, StreamingPartitioner};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;

// The shared `--key value` parser: duplicated flags fail at parse time,
// flags a command never reads fail when the command calls `finish`.
use mdbgp_bench::workload::Flags as Args;

/// Parses the `--dims` list into weight kinds.
fn parse_dims(spec: &str) -> Result<Vec<WeightKind>, String> {
    spec.split(',')
        .map(|tok| match tok.trim() {
            "unit" => Ok(WeightKind::Unit),
            "degree" => Ok(WeightKind::Degree),
            "ndsum" => Ok(WeightKind::NeighborDegreeSum),
            "pagerank" => Ok(WeightKind::pagerank_default()),
            other => Err(format!(
                "unknown dimension '{other}' (unit|degree|ndsum|pagerank)"
            )),
        })
        .collect()
}

fn load_graph(path: &str, format: &str) -> Result<Graph, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    match format {
        "text" => gio::read_edge_list(file),
        "metis" => gio::read_metis(file),
        "binary" => gio::read_binary(file),
        other => return Err(format!("unknown format '{other}'")),
    }
    .map_err(|e| format!("read {path}: {e}"))
}

fn save_graph(graph: &Graph, path: &str, format: &str) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    match format {
        "text" => gio::write_edge_list(graph, file),
        "metis" => gio::write_metis(graph, file),
        "binary" => gio::write_binary(graph, file),
        other => return Err(format!("unknown format '{other}'")),
    }
    .map_err(|e| format!("write {path}: {e}"))
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let model = args.opt("model").unwrap_or("community").to_string();
    let n: usize = args.num("n", 10_000)?;
    let seed: u64 = args.num("seed", 42)?;
    let out = args.req("output")?;
    let format = args.opt("format").unwrap_or("text");
    // Model parameters are read up front, so an unknown flag fails before
    // any work is done.
    let generate: Box<dyn FnOnce(&mut StdRng) -> Graph> = match model.as_str() {
        "community" => {
            let mut cfg = gen::CommunityGraphConfig::social(n);
            cfg.mean_degree = args.num("mean-degree", cfg.mean_degree)?;
            cfg.mixing = args.num("mixing", cfg.mixing)?;
            cfg.density_spread = args.num("density-spread", cfg.density_spread)?;
            Box::new(move |rng| gen::community_graph(&cfg, rng).graph)
        }
        "rmat" => {
            let scale = (n as f64).log2().ceil() as u32;
            let ef: usize = args.num("edge-factor", 16)?;
            Box::new(move |rng| gen::rmat(gen::RmatConfig::graph500(scale, ef), rng))
        }
        "er" => {
            let m: usize = args.num("edges", n * 8)?;
            Box::new(move |rng| gen::erdos_renyi(n, m, rng))
        }
        "ba" => {
            let m: usize = args.num("attach", 8)?;
            Box::new(move |rng| gen::barabasi_albert(n, m, rng))
        }
        other => return Err(format!("unknown model '{other}' (community|rmat|er|ba)")),
    };
    args.finish()?;
    let graph = generate(&mut StdRng::seed_from_u64(seed));
    save_graph(&graph, out, format)?;
    println!(
        "generated {model}: {} vertices, {} edges -> {out}",
        graph.num_vertices(),
        graph.num_edges()
    );
    Ok(())
}

fn cmd_partition(args: &Args) -> Result<(), String> {
    let input = args.req("input")?;
    let format = args.opt("format").unwrap_or("text");
    let kinds = parse_dims(args.opt("dims").unwrap_or("unit,degree"))?;
    let k: usize = args.num("k", 2)?;
    let eps: f64 = args.num("eps", 0.03)?;
    let seed: u64 = args.num("seed", 42)?;
    let algo = args.opt("algo").unwrap_or("gd");
    let output = args.opt("output");
    args.finish()?;
    let graph = load_graph(input, format)?;
    let weights = VertexWeights::build(&graph, &kinds);

    let gd = GdPartitioner::new(GdConfig::with_epsilon(eps));
    let gd_kway = KWayGdPartitioner::new(GdConfig::with_epsilon(eps));
    let hash = HashPartitioner;
    let spinner = SpinnerPartitioner::default();
    let blp = BlpPartitioner::default();
    let shp = ShpPartitioner::default();
    let metis = MetisPartitioner {
        epsilon: eps,
        ..MetisPartitioner::default()
    };
    let partitioner: &dyn Partitioner = match algo {
        "gd" => &gd,
        "gd-kway" => &gd_kway,
        "hash" => &hash,
        "spinner" => &spinner,
        "blp" => &blp,
        "shp" => &shp,
        "metis" => &metis,
        other => {
            return Err(format!(
                "unknown algorithm '{other}' (gd|gd-kway|hash|spinner|blp|shp|metis)"
            ))
        }
    };

    let start = std::time::Instant::now();
    let partition = partitioner
        .partition(&graph, &weights, k, seed)
        .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();
    let q = partition.quality(&graph, &weights);
    println!(
        "{} in {:.2}s: {q}",
        partitioner.name(),
        elapsed.as_secs_f64()
    );

    if let Some(out) = output {
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?,
        );
        for v in 0..partition.num_vertices() {
            writeln!(file, "{}", partition.part_of(v as u32)).map_err(|e| e.to_string())?;
        }
        println!("wrote assignment -> {out}");
    }
    Ok(())
}

fn cmd_evaluate(args: &Args) -> Result<(), String> {
    let input = args.req("input")?;
    let format = args.opt("format").unwrap_or("text");
    let kinds = parse_dims(args.opt("dims").unwrap_or("unit,degree"))?;
    let ppath = args.req("partition")?;
    args.finish()?;
    let graph = load_graph(input, format)?;
    let weights = VertexWeights::build(&graph, &kinds);

    let file = std::fs::File::open(ppath).map_err(|e| format!("open {ppath}: {e}"))?;
    let mut parts = Vec::new();
    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| e.to_string())?;
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        parts.push(
            t.parse::<u32>()
                .map_err(|e| format!("bad part id '{t}': {e}"))?,
        );
    }
    if parts.len() != graph.num_vertices() {
        return Err(format!(
            "partition covers {} vertices but graph has {}",
            parts.len(),
            graph.num_vertices()
        ));
    }
    let k = (*parts.iter().max().unwrap_or(&0) + 1) as usize;
    let partition = Partition::new(parts, k);
    let q = partition.quality(&graph, &weights);
    println!("{q}");
    println!("modularity: {:.4}", partition.modularity(&graph));
    for (j, imb) in q.imbalance.iter().enumerate() {
        println!("dimension {j}: imbalance {:.3}%", imb * 100.0);
    }
    Ok(())
}

/// Replays a stored edge list as an online stream: bootstrap GD on a
/// vertex-id prefix, then ingest the remaining vertices (with their
/// backward edges) in batches through `mdbgp-stream`, printing per-batch
/// drift/quality telemetry. Batches come from the shared
/// [`mdbgp_bench::workload::Generator`]; with `--churn F`, each batch also
/// removes `F` of its arrival count in random live vertices (and as many
/// random live edges), exercising the tombstone/purge path, and the
/// replay follows the id remaps purging compactions report.
///
/// Warm restart: `--save-snapshot FILE` persists the engine after the
/// last ingested batch (combine with `--stop-after B` to simulate a
/// crash mid-stream), followed by a resume trailer carrying the replay's
/// original→current id map, and `--load-snapshot FILE` resumes a later
/// invocation from that state instead of bootstrapping — streaming
/// continues from wherever the saved run stopped, at any id epoch. A
/// snapshot file without a trailer is rejected by name.
fn cmd_stream(args: &Args) -> Result<(), String> {
    let input = args.req("input")?;
    let format = args.opt("format").unwrap_or("text");
    let k: usize = args.num("k", 8)?;
    let eps: f64 = args.num("eps", 0.05)?;
    let seed: u64 = args.num("seed", 42)?;
    let batches: usize = args.num("batches", 10)?;
    let stop_after: usize = args.num("stop-after", 0)?;
    let threads: usize = args.num("threads", 1)?;
    if threads == 0 {
        return Err("--threads must be positive".into());
    }
    let churn: f64 = args.num("churn", 0.0)?;
    if !(0.0..1.0).contains(&churn) {
        return Err(format!("--churn must be in [0, 1), got {churn}"));
    }
    let bootstrap_fraction: f64 = args.num("bootstrap-fraction", 0.8)?;
    if !(0.0 < bootstrap_fraction && bootstrap_fraction < 1.0) {
        return Err(format!(
            "--bootstrap-fraction must be in (0, 1), got {bootstrap_fraction}"
        ));
    }
    // `.prom`/`.txt` gets the Prometheus text exposition, anything else
    // the JSON dump. `--metrics-every N` additionally flushes the file
    // every N batches so a long run (or one killed mid-stream) leaves a
    // scrapeable dump behind, not just the final snapshot.
    let metrics_out = args.opt("metrics-out");
    let metrics_every: usize = args.num("metrics-every", 0)?;
    if metrics_every > 0 && metrics_out.is_none() {
        return Err("--metrics-every needs --metrics-out FILE".into());
    }
    let load_snapshot = args.opt("load-snapshot");
    let save_snapshot = args.opt("save-snapshot");
    let purge_before_save: bool = args.num("purge-before-save", false)?;
    let output = args.opt("output");
    args.finish()?;
    let write_metrics = |sp: &mut StreamingPartitioner, path: &str| -> Result<(), String> {
        std::fs::write(path, render_metrics(sp.metrics(), path))
            .map_err(|e| format!("write metrics {path}: {e}"))
    };

    let graph = load_graph(input, format)?;
    let n = graph.num_vertices();
    let (mut sp, resumed_batches, tracker) = if let Some(path) = load_snapshot {
        let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        let mut reader = std::io::BufReader::new(file);
        // The replay scripts in original input ids, but the engine's id
        // space may have moved on (recycled slots, post-purge renumbering
        // at any id epoch): the resume trailer after the engine snapshot
        // carries the original→current map, so no epoch expectation here
        // — only shape (matching k, and the replay's two weight
        // dimensions: unit + degree).
        let expect = SnapshotExpectation::default().with_k(k).with_dims(2);
        let start = std::time::Instant::now();
        let mut sp = StreamingPartitioner::restore_expecting(&mut reader, &expect)
            .map_err(|e| format!("load snapshot {path}: {e}"))?;
        sp.set_threads(threads);
        // `restore_expecting` consumed exactly the engine snapshot; the
        // replay's own trailer follows.
        let state = read_trailer(&mut reader).map_err(|e| format!("load snapshot {path}: {e}"))?;
        let tracker = IdTracker::from_map(state.map);
        // Light cross-validation: every live translation must land
        // inside the restored engine's id space.
        let engine_n = sp.graph().num_vertices() as u32;
        for orig in 0..tracker.len() as u32 {
            if let Some(cur) = tracker.current(orig) {
                if cur >= engine_n {
                    return Err(format!(
                        "resume trailer maps original vertex {orig} to engine id {cur}, outside \
                         the restored engine's {engine_n}-vertex id space — trailer and \
                         snapshot disagree"
                    ));
                }
            }
        }
        if tracker.len() > n {
            return Err(format!(
                "snapshot covers {} streamed vertices but the input graph has only {n} — wrong \
                 input file for this snapshot?",
                tracker.len()
            ));
        }
        println!(
            "resumed from {path} in {:.2}s: {}/{n} vertices already ingested \
             ({} batches so far, id epoch {}), locality {:.1}%, imbalance {:.2}%",
            start.elapsed().as_secs_f64(),
            tracker.len(),
            sp.telemetry().batches,
            sp.id_epoch(),
            sp.store().edge_locality() * 100.0,
            sp.max_imbalance() * 100.0
        );
        (sp, state.batch_no as usize, tracker)
    } else {
        let n0 = ((n as f64 * bootstrap_fraction) as usize)
            .max(k)
            .min(n.saturating_sub(1));
        let (boot, weights) = bootstrap_prefix(&graph, n0);
        let start = std::time::Instant::now();
        let sp =
            StreamingPartitioner::bootstrap(boot, weights, stream_config(k, eps, threads, seed))
                .map_err(|e| e.to_string())?;
        println!(
            "bootstrap on {n0}/{n} vertices in {:.2}s: locality {:.1}%, imbalance {:.2}%",
            start.elapsed().as_secs_f64(),
            sp.store().edge_locality() * 100.0,
            sp.max_imbalance() * 100.0
        );
        (sp, 0, IdTracker::identity(n0))
    };

    let per_batch = (n - tracker.len()).div_ceil(batches.max(1));
    let mut batch_no = resumed_batches;
    // The churn RNG is reseeded fresh on resume: removal *victims* after
    // the resume point differ from the uninterrupted run's, which is
    // fine — victims are sampled from the live graph through the
    // tracker, so any sequence is a valid churn script. Resume restores
    // *state*, not the original run's future randomness.
    let mut gen = Generator::new(graph, StdRng::seed_from_u64(seed ^ 0x5EED), tracker);
    while gen.remaining() > 0 {
        if stop_after > 0 && batch_no >= stop_after {
            println!(
                "stopping after batch {batch_no} as requested ({} vertices left unstreamed)",
                gen.remaining()
            );
            break;
        }
        batch_no += 1;
        let arrivals = per_batch.min(gen.remaining());
        let removals = (arrivals as f64 * churn) as usize;
        let mix = Mix {
            arrivals,
            edge_removals: removals,
            vertex_removals: removals,
            ..Mix::default()
        };
        let batch = gen.next_batch(&sp, &mix)?;
        let start = std::time::Instant::now();
        let report = sp.ingest(&batch).map_err(|e| e.to_string())?;
        gen.absorb(&report)?;
        println!(
            "batch {batch_no}: +{} -{} vertices, +{} -{} edges in {:.1}ms — imbalance \
             {:.2}%, locality {:.1}%{}{}",
            report.vertices_added,
            report.vertices_removed,
            report.edges_added,
            report.edges_removed,
            start.elapsed().as_secs_f64() * 1e3,
            report.max_imbalance * 100.0,
            report.edge_locality * 100.0,
            if report.refined {
                format!(
                    " (refined: {} rebalance + {} gd moves)",
                    report.rebalance_moves, report.refine_moves
                )
            } else {
                String::new()
            },
            if report.placement_conflicts > 0 {
                format!(
                    " (repaired {} placement conflicts in {} passes)",
                    report.placement_conflicts, report.repair_passes
                )
            } else {
                String::new()
            }
        );
        if metrics_every > 0 && batch_no.is_multiple_of(metrics_every) {
            if let Some(path) = metrics_out {
                write_metrics(&mut sp, path)?;
                println!("flushed metrics -> {path} (batch {batch_no})");
            }
        }
    }

    // Persist the engine *before* the final output purge below (which
    // exists only to make the `--output` assignment cover exactly the
    // live vertices). The snapshot itself may be taken at any id epoch:
    // the resume trailer appended after it carries the replay's
    // original→current id map. `--purge-before-save true` forces a
    // purging compaction first — a deterministic way to exercise (and
    // regression-test) the post-purge resume path.
    if let Some(path) = save_snapshot {
        if purge_before_save {
            if let Some(remap) = sp.purge() {
                gen.apply_remap(&remap);
            }
            println!(
                "purged before save: id epoch {}, {} live vertices",
                sp.id_epoch(),
                sp.graph().num_vertices()
            );
        }
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?,
        );
        let info = sp
            .save_snapshot(&mut file)
            .map_err(|e| format!("save snapshot {path}: {e}"))?;
        let state = ResumeState {
            arrived: gen.arrived() as u32,
            batch_no: batch_no as u64,
            map: gen.tracker().as_slice().to_vec(),
        };
        write_trailer(&mut file, &state).map_err(|e| format!("save snapshot {path}: {e}"))?;
        println!(
            "wrote snapshot -> {path} ({} payload bytes + resume trailer, id epoch {}, k {}, \
             {} dims, {} streamed)",
            info.payload_bytes,
            info.id_epoch,
            info.k,
            info.dims,
            gen.arrived()
        );
    }

    if let Some(path) = metrics_out {
        write_metrics(&mut sp, path)?;
        println!("wrote metrics dump -> {path}");
    }

    // Under churn the final snapshot may still hold tombstoned ids; purge
    // so the partition written below covers exactly the live vertices.
    if let Some(remap) = sp.purge() {
        gen.apply_remap(&remap);
    }
    let t = sp.telemetry();
    println!(
        "done: {} placed, {} removed, +{} -{} edges, {} compactions ({} remaps), \
         {} refinements; final imbalance {:.2}%, locality {:.1}%",
        t.vertices_placed,
        t.vertices_removed,
        t.edges_added,
        t.edges_removed,
        t.compactions,
        t.remaps,
        t.refinements,
        sp.max_imbalance() * 100.0,
        sp.store().edge_locality() * 100.0
    );
    if let Some(out) = output {
        let partition = sp.partition();
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?,
        );
        if churn > 0.0 {
            // Purges renumbered the engine ids, so one-part-per-line would
            // silently key on post-purge ids; write explicit
            // `original-id part` pairs instead (removed vertices have no
            // part and are omitted). Not `evaluate` input — the streamed
            // graph no longer matches the input file anyway.
            let tracker = gen.tracker();
            for orig in 0..tracker.len() as u32 {
                if let Some(cur) = tracker.current(orig) {
                    writeln!(file, "{orig} {}", partition.part_of(cur))
                        .map_err(|e| e.to_string())?;
                }
            }
            println!(
                "wrote assignment (original-id part pairs; removed vertices omitted) -> {out}"
            );
        } else {
            for v in 0..partition.num_vertices() {
                writeln!(file, "{}", partition.part_of(v as u32)).map_err(|e| e.to_string())?;
            }
            println!("wrote assignment -> {out}");
        }
    }
    Ok(())
}

const USAGE: &str = "usage: mdbgp_cli <generate|partition|evaluate|stream> [--flag value]...
  generate  --model community|rmat|er|ba --n N --output FILE
            [--format text|metis|binary] [--seed S] [--mean-degree D]
            [--mixing M] [--density-spread S] [--edges M] [--attach M]
  partition --input FILE --algo gd|gd-kway|hash|spinner|blp|shp|metis
            --k K [--eps E] [--dims unit,degree,ndsum,pagerank]
            [--seed S] [--output PARTS] [--format text|metis|binary]
  evaluate  --input FILE --partition PARTS [--dims ...]
  stream    --input FILE --k K [--eps E] [--batches B] [--threads T]
            [--churn F] [--bootstrap-fraction F] [--seed S]
            [--stop-after B] [--save-snapshot FILE] [--load-snapshot FILE]
            [--purge-before-save true] [--metrics-out FILE] [--metrics-every N]
            [--output PARTS] [--format text|metis|binary]";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = Args::parse(rest)
        .map_err(String::from)
        .and_then(|args| match cmd.as_str() {
            "generate" => cmd_generate(&args),
            "partition" => cmd_partition(&args),
            "evaluate" => cmd_evaluate(&args),
            "stream" => cmd_stream(&args),
            other => Err(format!("unknown command '{other}'\n{USAGE}")),
        });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn arg_parsing_roundtrip() {
        let a = args(&["--k", "8", "--eps", "0.05"]);
        assert_eq!(a.req("k").unwrap(), "8");
        assert_eq!(a.num::<usize>("k", 2).unwrap(), 8);
        assert_eq!(a.num::<f64>("eps", 0.1).unwrap(), 0.05);
        assert_eq!(a.num::<u64>("seed", 7).unwrap(), 7, "default applies");
        assert!(a.req("missing").is_err());
    }

    #[test]
    fn arg_parsing_rejects_malformed() {
        assert!(Args::parse(&["k".to_string()]).is_err());
        assert!(Args::parse(&["--k".to_string()]).is_err());
    }

    #[test]
    fn dims_parser() {
        let kinds = parse_dims("unit,degree,ndsum,pagerank").unwrap();
        assert_eq!(kinds.len(), 4);
        assert_eq!(kinds[0], WeightKind::Unit);
        assert!(parse_dims("bogus").is_err());
    }
}
