//! `stream_replicate` — replicated-serving bench: one
//! [`mdbgp_stream::Leader`] ingests churn-heavy update batches while
//! `--followers F` in-process [`mdbgp_stream::Follower`]s bootstrap from
//! its shipped snapshot, tail the batch log record-by-record, publish
//! their own [`mdbgp_stream::ReadView`]s, and serve lookups from them —
//! across purging compactions and `--rotate-every` log rotations.
//!
//! Scenario: the same [`Shape::GrowShrink`] batches of
//! [`mdbgp_bench::workload`] as `stream_serve` — even batches grow (full `--arrivals` plus extra edges and a hot-shard drift
//! spike), odd batches shrink (arrivals cut to an eighth, removals above
//! the arrival count) so tombstones survive arrival-id recycling and the
//! tight `--compact-slack` forces purging compactions *inside ingest*,
//! where the log can replay them. After every leader batch each follower
//! replays the new log record, its published view is checked against the
//! leader's stamp (`(id_epoch, batch_seq)` + view checksum, then the
//! full assignment byte-for-byte), and it serves a burst of lookups
//! through its own [`mdbgp_stream::ReadHandle`] — verifying checksums
//! and adopting epochs exactly like a remote replica would.
//!
//! The run fails (non-zero exit) if the leader violates ε, if fewer than
//! two purges happened (the log would not be covering remaps), if no
//! rotation happened, if any follower diverges from the leader's stamp
//! stream or assignment, if any follower saw a torn view, or if the
//! followers' own stamp streams disagree with each other.
//!
//! CI hooks: `--json-out FILE` writes the perf record, including the
//! replay-lag fields (`replay_total_ms`, `replay_batches`, `log_bytes`,
//! `log_rotations`, `followers`); `--check-against BASELINE` gates it
//! against the committed `BENCH_stream_replicate.json` — replay lag is
//! machine-normalized against a same-process scratch GD solve of the
//! final graph, like every other wall-clock gate (see
//! [`mdbgp_bench::perfgate`]). `--stamps-out PREFIX` writes one
//! `PREFIX.leader.txt` plus one `PREFIX.fI.txt` per follower, each line
//! `id_epoch batch_seq checksum` for one applied batch, so CI can diff
//! the streams byte-for-byte. `--metrics-det-out PREFIX` writes each
//! follower's deterministic metrics dump (`PREFIX.fI.json`) — followers
//! replay identical records, so the dumps must be byte-identical
//! follower-to-follower (the *leader's* registry legitimately differs:
//! it carries the bootstrap GD counters and the leader-only `stream.log`
//! counters). `--metrics-out PREFIX` writes full dumps for the leader
//! and follower 0 (`PREFIX.leader.json`, `PREFIX.f0.json`) for
//! `metrics_check` schema validation.

use mdbgp_bench::perfgate::PerfRecord;
use mdbgp_bench::policies::timed;
use mdbgp_bench::table::Table;
use mdbgp_bench::workload::{
    acceptance, bin_main, lookup_burst, scratch_solve, write_output, Defaults, Flags, Mix, Shape,
    StreamArgs,
};
use mdbgp_stream::{Follower, Leader};
use std::fmt::Write as _;
use std::process::ExitCode;

const USAGE: &str = "usage: stream_replicate [--n N] [--batches B] [--arrivals A] \
    [--extra-edges E] [--drift D] [--churn F] [--k K] [--eps EPS] [--seed S] [--threads T] \
    [--followers F] [--rotate-every R] [--compact-slack S] [--json-out FILE] \
    [--stamps-out PREFIX] [--metrics-out PREFIX] [--metrics-det-out PREFIX] \
    [--check-against BASELINE] [--max-regress FRAC]";

struct Args {
    stream: StreamArgs,
    followers: usize,
    rotate_every: usize,
    compact_slack: f64,
    stamps_out: Option<String>,
    metrics_det_out: Option<String>,
}

fn parse_args(flags: &Flags) -> Result<Args, String> {
    Ok(Args {
        stream: StreamArgs::parse(flags, Defaults::GROW_SHRINK)?,
        followers: match flags.num("followers", 2)? {
            0 => return Err("--followers must be positive".into()),
            f => f,
        },
        rotate_every: match flags.num("rotate-every", 4)? {
            0 => return Err("--rotate-every must be positive".into()),
            r => r,
        },
        // Tight by default: the leg exists to replicate *across purges*,
        // so compactions must fire on the shrinking batches.
        compact_slack: flags.num("compact-slack", 0.05)?,
        stamps_out: flags.opt("stamps-out").map(String::from),
        metrics_det_out: flags.opt("metrics-det-out").map(String::from),
    })
}

/// One replica and the stamp stream it published.
struct Replica {
    follower: Follower,
    stamps: Vec<(u64, u64, u64)>,
}

fn main() -> ExitCode {
    bin_main(USAGE, parse_args, run)
}

fn run(a: &Args) -> Result<(), String> {
    let args = &a.stream;
    println!(
        "stream_replicate: {args}, followers={}, rotate every {}",
        a.followers, a.rotate_every
    );
    let mut cfg = args.config();
    cfg.compact_slack = a.compact_slack;
    let gd_cfg = cfg.gd.clone();
    let (sp, mut gen) = args.bootstrap(cfg);
    let mut leader =
        Leader::new(sp).map_err(|e| format!("cannot open the leader's first log segment: {e}"))?;
    println!("leader snapshot: {} bytes", leader.snapshot_bytes().len());

    // Every follower bootstraps from the leader's shipped segment-base
    // snapshot — the same bytes a remote replica would receive.
    let mut replicas: Vec<Replica> = Vec::with_capacity(a.followers);
    for i in 0..a.followers {
        let follower = Follower::bootstrap(leader.snapshot_bytes())
            .map_err(|e| format!("follower {i} bootstrap: {e}"))?;
        replicas.push(Replica {
            follower,
            stamps: Vec::with_capacity(args.batches),
        });
    }
    let mut handles: Vec<_> = replicas.iter().map(|r| r.follower.reader()).collect();
    println!();

    let mut table = Table::new(["batch", "shape", "inc ms", "replay ms", "imb %", "log KB"]);
    let mut record = PerfRecord::new(args.threads, args.churn);
    let mut leader_stamps: Vec<(u64, u64, u64)> = Vec::with_capacity(args.batches);
    let (mut torn, mut lookups) = (0u64, 0u64);

    for batch_no in 1..=args.batches {
        let batch = gen.next_batch(leader.engine(), &args.mix(Shape::GrowShrink, batch_no))?;
        let (report, inc_time) = timed(|| leader.ingest(&batch).expect("leader ingest failed"));
        gen.absorb(&report)?;
        let lv = leader.engine().read_view();
        leader_stamps.push((lv.epoch().id_epoch, lv.epoch().batch_seq, lv.checksum()));

        // Followers tail the segment: each replay re-reads the log from
        // the segment header (skipping already-applied stamps, as a
        // resumed tailer would) and must apply exactly the one new record.
        let mut replay_ms = 0.0f64;
        for (i, r) in replicas.iter_mut().enumerate() {
            let (applied, t) = timed(|| r.follower.replay(leader.log_bytes()));
            replay_ms += t.as_secs_f64() * 1e3;
            match applied {
                Ok(1) => {}
                Ok(n) => return Err(format!("follower {i} applied {n} records, wanted 1")),
                Err(e) => return Err(format!("follower {i} replay: {e}")),
            }
            let fv = r.follower.view();
            if fv.epoch() != lv.epoch() || fv.checksum() != lv.checksum() {
                return Err(format!(
                    "follower {i} diverged at batch {batch_no}: ({}, {}) checksum \
                     {:#018x} vs leader ({}, {}) {:#018x}",
                    fv.epoch().id_epoch,
                    fv.epoch().batch_seq,
                    fv.checksum(),
                    lv.epoch().id_epoch,
                    lv.epoch().batch_seq,
                    lv.checksum()
                ));
            }
            r.stamps
                .push((fv.epoch().id_epoch, fv.epoch().batch_seq, fv.checksum()));

            // Serve a lookup burst from the follower's own published
            // view, through the same pin/verify/adopt protocol a remote
            // serving thread runs.
            let mut lcg = 0x2545_F491_4F6C_DD1Du64.wrapping_add(batch_no as u64);
            let (torn_view, served) = lookup_burst(&mut handles[i], &mut lcg, 256);
            torn += torn_view as u64;
            lookups += served;
        }
        record.add("replay_total_ms", replay_ms);

        record.push_batch(
            batch_no,
            &report,
            inc_time,
            leader.engine().store().cut_edges(),
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
            format!("{replay_ms:.1}"),
            format!("{:.2}", report.max_imbalance * 100.0),
            format!("{:.1}", leader.log_bytes().len() as f64 / 1024.0),
        ]);

        // Rotate after the tailers caught up, as a real retention policy
        // would ensure; followers adopt the fresh segment (and
        // canonicalize their heaps) on their next replay.
        if batch_no % a.rotate_every == 0 {
            record.add("log_bytes", leader.log_bytes().len() as f64);
            leader
                .rotate()
                .map_err(|e| format!("log rotation after batch {batch_no}: {e}"))?;
        }
    }
    record.add("log_bytes", leader.log_bytes().len() as f64);

    // Final byte-level check: every follower's full assignment must equal
    // the leader's, not just the stamps.
    let lv = leader.engine().read_view();
    for (i, r) in replicas.iter().enumerate() {
        if r.follower.view().as_slice() != lv.as_slice() {
            return Err(format!(
                "follower {i} assignment differs from the leader's despite matching stamps"
            ));
        }
        if r.stamps != replicas[0].stamps {
            return Err(format!(
                "follower {i} stamp stream differs from follower 0's"
            ));
        }
    }
    println!("{table}");

    // Same-machine normalization anchor: one scratch GD solve of the
    // final live graph, exactly the solver the replay path re-runs.
    let scratch = scratch_solve(leader.engine(), &gd_cfg, args.k, args.seed + 1);
    record.add_scratch(scratch.elapsed);

    let t = leader.engine().telemetry().clone();
    let replay_batches: u64 = replicas.iter().map(|r| r.follower.replayed()).sum();
    let rotations = leader.rotations();
    record.set("replay_batches", replay_batches as f64);
    record.set("log_rotations", rotations as f64);
    record.set("followers", a.followers as f64);
    record.read_registry(leader.metrics_mut());
    record.finish(
        leader.engine().store().edge_locality(),
        leader.engine().max_imbalance(),
    );
    println!(
        "replication: {} followers replayed {replay_batches} records in {:.1} ms total \
         (leader ingest {:.1} ms), {} log records / {} log bytes / {rotations} rotations",
        a.followers,
        record.value("replay_total_ms"),
        record.value("inc_total_ms"),
        leader.metrics_mut().counter("stream.log.records"),
        record.value("log_bytes"),
    );
    println!(
        "churn: {} placed, {} removed, {} compactions ({} remaps); serving: {lookups} \
         follower lookups, {torn} torn reads",
        t.vertices_placed, t.vertices_removed, t.compactions, t.remaps
    );

    args.write_record(&record)?;
    if let Some(prefix) = &a.stamps_out {
        let followers = replicas
            .iter()
            .enumerate()
            .map(|(i, r)| (format!("f{i}"), &r.stamps));
        for (who, stamps) in
            std::iter::once(("leader".to_string(), &leader_stamps)).chain(followers)
        {
            let mut text = String::new();
            for (id_epoch, batch_seq, checksum) in stamps {
                let _ = writeln!(text, "{id_epoch} {batch_seq} {checksum:#018x}");
            }
            write_output("stamps-out", &format!("{prefix}.{who}.txt"), &text)?;
        }
    }
    if let Some(prefix) = &a.metrics_det_out {
        for (i, r) in replicas.iter_mut().enumerate() {
            let dump = r.follower.metrics_mut().deterministic_json();
            write_output("metrics-det-out", &format!("{prefix}.f{i}.json"), &dump)?;
        }
    }
    if let Some(prefix) = &args.metrics_out {
        let dump = leader.metrics_mut().render_json();
        write_output("metrics-out", &format!("{prefix}.leader.json"), &dump)?;
        let dump = replicas[0].follower.metrics_mut().render_json();
        write_output("metrics-out", &format!("{prefix}.f0.json"), &dump)?;
    }

    // Acceptance: the leg must actually have replicated across purges and
    // a rotation, cleanly. The scratch partition is only the timing
    // anchor, but sanity-check it balanced.
    acceptance([
        (
            record.get("eps_ok") == Some(1.0),
            "leader violated ε".into(),
        ),
        (
            scratch.imbalance <= args.eps + 1e-9,
            "scratch reference solve violated ε".into(),
        ),
        (
            t.remaps >= 2,
            format!(
                "run crossed only {} purges (need >= 2) — not a cross-epoch replication test",
                t.remaps
            ),
        ),
        (
            rotations >= 1,
            "the log never rotated — segment adoption went untested".into(),
        ),
        (
            torn == 0,
            format!("{torn} torn follower view reads (checksum mismatches)"),
        ),
        (lookups > 0, "followers served no lookups".into()),
    ])?;
    if let Some(baseline) = args.gate(&record)? {
        println!(
            "perf gate: replay {:.1} ms vs baseline {:.1} ms — within limits",
            record.value("replay_total_ms"),
            baseline.value("replay_total_ms")
        );
    }

    println!(
        "PASS: {} followers bitwise-tracked the leader across {} purges and {rotations} \
         rotations, replay {:.1} ms vs ingest {:.1} ms, {lookups} lookups / 0 torn reads",
        a.followers,
        t.remaps,
        record.value("replay_total_ms"),
        record.value("inc_total_ms")
    );
    Ok(())
}
