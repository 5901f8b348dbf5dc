//! `stream_serve` — concurrent-serving bench: `--readers R` reader
//! threads hammer lock-free lookups against the engine's published
//! [`mdbgp_stream::ReadView`]s while the main thread ingests churn-heavy
//! update batches, including net-shrinking ones that purge and renumber
//! the id space mid-serve.
//!
//! Scenario: a community graph bootstrapped at `--n` vertices receives
//! `--batches` [`Shape::GrowShrink`] batches from
//! [`mdbgp_bench::workload`]: even batches grow (full `--arrivals` plus
//! extra edges and a hot-shard drift spike), odd batches shrink (arrivals
//! cut to an eighth, removals above the arrival count), so tombstones
//! survive arrival-id recycling and the tight `--compact-slack` forces
//! purging compactions — the remap-heavy regime the epoch-swapped read
//! path exists for. Throughout, every reader spins: probe for a new view
//! (one atomic load), re-pin and verify the view checksum when one was
//! published, adopt the new id epoch, and serve a burst of lookups from
//! the pinned view.
//!
//! The run fails (non-zero exit) if the incremental path violates ε, if
//! fewer than two purges happened (the leg would not be testing
//! cross-epoch serving), if any reader saw a torn view (checksum
//! mismatch), or if any lookup was served across an unadopted epoch
//! (`stream.store.stale_epoch_reads` must end at zero).
//!
//! CI hooks: `--json-out FILE` writes the perf record, including
//! `lookups_per_sec` and `lookup_p99_us`; `--check-against BASELINE`
//! gates it against the committed `BENCH_stream_serve.json` (see
//! [`mdbgp_bench::perfgate`]). `--metrics-out` writes the metrics dump
//! `metrics_check` validates, serving counters included.

use mdbgp_bench::perfgate::PerfRecord;
use mdbgp_bench::policies::timed;
use mdbgp_bench::table::Table;
use mdbgp_bench::workload::{
    acceptance, bin_main, lookup_burst, scratch_solve, Defaults, Flags, Mix, Shape, StreamArgs,
};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

const USAGE: &str = "usage: stream_serve [--n N] [--batches B] [--arrivals A] \
    [--extra-edges E] [--drift D] [--churn F] [--k K] [--eps EPS] [--seed S] [--threads T] \
    [--readers R] [--compact-slack S] [--json-out FILE] [--metrics-out FILE] \
    [--check-against BASELINE] [--max-regress FRAC]";

struct Args {
    stream: StreamArgs,
    readers: usize,
    compact_slack: f64,
}

fn parse_args(flags: &Flags) -> Result<Args, String> {
    Ok(Args {
        stream: StreamArgs::parse(flags, Defaults::GROW_SHRINK)?,
        readers: match flags.num("readers", 4)? {
            0 => return Err("--readers must be positive".into()),
            r => r,
        },
        // Tight by default: the leg exists to cross purges, so compactions
        // must fire on the shrinking batches rather than accumulate.
        compact_slack: flags.num("compact-slack", 0.05)?,
    })
}

fn main() -> ExitCode {
    bin_main(USAGE, parse_args, run)
}

fn run(a: &Args) -> Result<(), String> {
    let args = &a.stream;
    println!("stream_serve: {args}, readers={}", a.readers);
    let mut cfg = args.config();
    cfg.compact_slack = a.compact_slack;
    let gd_cfg = cfg.gd.clone();
    let (mut sp, mut gen) = args.bootstrap(cfg);

    let mut table = Table::new(["batch", "shape", "inc ms", "imb %", "remaps", "lookups"]);
    let mut record = PerfRecord::new(args.threads, args.churn);
    let stop = AtomicBool::new(false);
    let torn = AtomicU64::new(0);
    let handles: Vec<_> = (0..a.readers).map(|_| sp.reader()).collect();
    let serve_start = Instant::now();
    let mut serve_secs = 0.0f64;

    std::thread::scope(|scope| {
        for (t, mut h) in handles.into_iter().enumerate() {
            let stop = &stop;
            let torn = &torn;
            scope.spawn(move || {
                // Cheap thread-local id sampler; the reader draws targets
                // from its *pinned* view's own id space, so resampling
                // after an epoch switch is automatic.
                let mut lcg = 0x2545_F491_4F6C_DD1Du64.wrapping_add(t as u64);
                while !stop.load(Ordering::Relaxed) {
                    if lookup_burst(&mut h, &mut lcg, 64).0 {
                        torn.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        let result = (|| -> Result<(), String> {
            for batch_no in 1..=args.batches {
                let batch = gen.next_batch(&sp, &args.mix(Shape::GrowShrink, batch_no))?;
                let (report, inc_time) = timed(|| sp.ingest(&batch).expect("ingest failed"));
                gen.absorb(&report)?;
                record.push_batch(
                    batch_no,
                    &report,
                    inc_time,
                    sp.store().cut_edges(),
                    args.eps,
                );
                table.row([
                    format!("{batch_no}"),
                    (if Mix::shrinks(batch_no) {
                        "shrink"
                    } else {
                        "grow"
                    })
                    .to_string(),
                    format!("{:.1}", inc_time.as_secs_f64() * 1e3),
                    format!("{:.2}", report.max_imbalance * 100.0),
                    format!("{}", sp.telemetry().remaps),
                    format!("{}", sp.store().lookup_count()),
                ]);
            }
            Ok(())
        })();
        serve_secs = serve_start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        result
    })?;
    println!("{table}");

    // Same-machine normalization anchor: one scratch GD solve of the
    // final live graph, exactly the solver the ingest path replaces.
    let scratch = scratch_solve(&sp, &gd_cfg, args.k, args.seed + 1);
    record.add_scratch(scratch.elapsed);

    let t = sp.telemetry().clone();
    let lookups = sp.store().lookup_count();
    let stale = sp.store().stale_epoch_read_count();
    let torn = torn.load(Ordering::Relaxed);
    let lookups_per_sec = lookups as f64 / serve_secs.max(1e-9);
    let lookup_p99_us = sp
        .metrics()
        .summary("stream.store.lookup_us")
        .map_or(0.0, |s| s.p99 as f64);
    record.set("lookups_per_sec", lookups_per_sec);
    record.set("lookup_p99_us", lookup_p99_us);
    record.read_registry(sp.metrics());
    record.finish(sp.store().edge_locality(), sp.max_imbalance());
    println!(
        "serving: {lookups} lookups over {serve_secs:.2}s across {} readers \
         -> {lookups_per_sec:.0} lookups/s, p99 {lookup_p99_us:.0} µs",
        a.readers
    );
    println!(
        "churn: {} placed, {} removed, {} compactions ({} remaps), {} view swaps, \
         {} stale-epoch reads, {torn} torn reads",
        t.vertices_placed,
        t.vertices_removed,
        t.compactions,
        t.remaps,
        sp.store().view_swap_count(),
        stale
    );

    args.write_record(&record)?;
    args.write_metrics(sp.metrics())?;

    // Acceptance: the leg must actually have crossed epochs under load,
    // cleanly. The scratch partition itself is only the timing anchor,
    // but sanity-check it balanced.
    acceptance([
        (
            record.get("eps_ok") == Some(1.0),
            "incremental path violated ε".into(),
        ),
        (
            scratch.imbalance <= args.eps + 1e-9,
            "scratch reference solve violated ε".into(),
        ),
        (
            t.remaps >= 2,
            format!(
                "run crossed only {} purges (need >= 2) — not a cross-epoch serving test",
                t.remaps
            ),
        ),
        (
            torn == 0,
            format!("{torn} torn view reads (checksum mismatches)"),
        ),
        (
            stale == 0,
            format!("{stale} lookups served across an unadopted epoch"),
        ),
        (lookups > 0, "readers served no lookups".into()),
    ])?;
    if let Some(baseline) = args.gate(&record)? {
        println!(
            "perf gate: lookup p99 {lookup_p99_us:.0} µs vs baseline {:.0} µs — within limits",
            baseline.value("lookup_p99_us")
        );
    }

    println!(
        "PASS: ε held, {} purges crossed, 0 torn / 0 stale-epoch reads, \
         {lookups_per_sec:.0} lookups/s at p99 {lookup_p99_us:.0} µs",
        t.remaps
    );
    Ok(())
}
