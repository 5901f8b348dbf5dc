//! Smoke test of the three stream bench bins at small sizes: each run
//! must pass its own acceptance bars and write a perf record that a
//! second run of the same workload accepts through `--check-against`, and
//! a misspelled flag must be rejected by name.

use std::path::PathBuf;
use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (bool, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("spawn bench bin");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mdbgp-stream-bins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `bin` on `workload` (whitespace-separated flags) once writing a
/// record, then gates further runs of the same workload against it.
/// Wall-clock gates compare two runs' timings on a shared host, where one
/// run can be preempted, so the gated run gets three attempts; the record
/// is accepted if any attempt passes.
fn record_round_trips(bin: &str, workload: &str, record: &str) {
    let flags: Vec<&str> = workload.split_whitespace().collect();
    let (ok, out) = run(bin, &[&flags[..], &["--json-out", record]].concat());
    assert!(ok && out.contains("PASS"), "{bin} failed:\n{out}");
    let gated = [&flags[..], &["--check-against", record]].concat();
    let mut attempts = Vec::new();
    for _ in 0..3 {
        let (ok, out) = run(bin, &gated);
        if ok {
            assert!(out.contains("perf gate:"), "{out}");
            return;
        }
        attempts.push(out);
    }
    panic!(
        "{bin} rejected its own record:\n{}",
        attempts.join("\n---\n")
    );
}

#[test]
fn stream_bins_run_and_accept_their_own_records() {
    let dir = scratch_dir();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let online = "--n 3000 --batches 4 --arrivals 150 --extra-edges 100 --drift 40 --k 4 \
                  --snapshot-every 2";
    record_round_trips(
        env!("CARGO_BIN_EXE_stream_online"),
        online,
        &path("online.json"),
    );
    let record = std::fs::read_to_string(path("online.json")).unwrap();
    assert!(record.contains("\"snapshots\": 2,"), "{record}");
    // The record spans every engine restart.
    assert!(record.contains("\"ingest_batches\": 4,"), "{record}");

    // The serve and replicate legs run at the CI legs' band: their ingest
    // shares the host with reader threads or followers.
    let grow_shrink = "--n 2000 --batches 4 --arrivals 200 --extra-edges 200 --drift 60 --k 4 \
                       --max-regress 0.60";
    let serve = format!("{grow_shrink} --readers 1");
    record_round_trips(
        env!("CARGO_BIN_EXE_stream_serve"),
        &serve,
        &path("serve.json"),
    );
    let replicate = format!("{grow_shrink} --followers 2 --rotate-every 2");
    record_round_trips(
        env!("CARGO_BIN_EXE_stream_replicate"),
        &replicate,
        &path("replicate.json"),
    );
    let record = std::fs::read_to_string(path("replicate.json")).unwrap();
    assert!(record.contains("\"followers\": 2,"), "{record}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn misspelled_flags_are_rejected_by_name() {
    let cases = [
        (
            env!("CARGO_BIN_EXE_stream_online"),
            "--folowers 7 --snapshot-evry 1",
            "unknown flag(s): --folowers, --snapshot-evry",
        ),
        (
            env!("CARGO_BIN_EXE_stream_serve"),
            "--k 4 --k 8",
            "--k given more than once",
        ),
        (
            env!("CARGO_BIN_EXE_mdbgp_cli"),
            "stream --input g.txt --chrun 0.2",
            "unknown flag(s): --chrun",
        ),
    ];
    for (bin, args, error) in cases {
        let (ok, out) = run(bin, &args.split_whitespace().collect::<Vec<_>>());
        assert!(!ok && out.contains(error), "{bin} {args}:\n{out}");
    }
}
