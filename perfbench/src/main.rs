//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, one JSON object: whether every output checked out,
//! the operations attempted and failed, and every end-to-end metric
//! (`--trace 0`) or every per-layer metric (`--trace 1`) with its unit.
//! Exits non-zero if any operation failed.
//!
//! Two flags exist for the benchmark's own tests: `--size tiny` shrinks
//! the workload, and `--inject eps|diverge` plants a fault that must be
//! counted as failed.

use perfbench::run::{run, Fault, Options};
use perfbench::workload::Workload;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;

fn parse() -> Result<Options, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = HashMap::new();
    for pair in argv.chunks(2) {
        let key = pair[0]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{}'", pair[0]))?;
        let value = pair
            .get(1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    let get = |key: &str| flags.get(key).ok_or_else(|| format!("--{key} is required"));
    let name = get("workload")?;
    let mut workload =
        Workload::by_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    match flags.get("size").map(String::as_str) {
        None | Some("full") => {}
        Some("tiny") => workload = workload.tiny(),
        Some(other) => return Err(format!("--size: expected full or tiny, got '{other}'")),
    }
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds: expected a number".to_string())?;
    Ok(Options {
        workload,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed: expected an unsigned integer".to_string())?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got '{other}'")),
        },
        fault: match flags.get("inject").map(String::as_str) {
            None => None,
            Some("eps") => Some(Fault::Eps),
            Some("diverge") => Some(Fault::Diverge),
            Some(other) => return Err(format!("--inject: expected eps or diverge, got '{other}'")),
        },
    })
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload churn-long|arrivals-k32|serve-replicate \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for e in outcome.errors.iter().take(20) {
        eprintln!("FAIL: {e}");
    }
    let mut metrics = String::new();
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { -1.0 };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let correct = outcome.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
