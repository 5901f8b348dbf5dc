//! Perf records and the regression gate for the stream bench bins.
//!
//! A [`PerfRecord`] is a flat name → value map plus a per-batch array.
//! The bins fill it from three sources: harness scalars (thread count,
//! churn, incremental and scratch wall-clock totals, ε, locality, and the
//! serving / replication / snapshot figures only some bins measure),
//! stage totals summed from every [`BatchReport`]'s span tree, and
//! counters and quantiles read from the metrics registry by the fixed
//! names of [`SCHEMA`], which lists every key a record may carry with its
//! format and source, in rendering order. A key a run did not measure is
//! simply absent.
//!
//! CI compares every run against a committed baseline. Raw wall-clock is
//! useless across heterogeneous runners, so wall-clock gates compare
//! **normalized** figures: a time divided by the from-scratch GD time
//! measured in the same process on the same machine. Every gate is one
//! row of [`GATES`]; [`check_regression`] evaluates the table and nothing
//! else. A gate compares only when both records carry every key it reads.
//!
//! The JSON is deliberately flat (scalars plus one per-batch array of
//! number maps) so this crate reads it back with the tiny parser below
//! instead of a vendored serde.

use mdbgp_obs::MetricsRegistry;
use mdbgp_stream::BatchReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Per-batch measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchPerf {
    pub batch: usize,
    /// Incremental ingest wall-clock for this batch, milliseconds.
    pub inc_ms: f64,
    /// From-scratch GD wall-clock attributed to this batch, ms (0 when the
    /// bin solves from scratch once, after the last batch).
    pub scratch_ms: f64,
    /// Cut edges of the incremental partition after the batch.
    pub cut_edges: usize,
    /// Post-batch max imbalance of the incremental partition.
    pub imbalance: f64,
    /// Post-batch edge locality of the incremental partition.
    pub locality: f64,
}

/// How a record value renders in JSON.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fmt {
    Int,
    Bool,
    /// Fixed-point with this many decimals.
    Fixed(usize),
}

/// Where a record value comes from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Source {
    /// Set by the bench: a harness scalar, or a stage total summed from
    /// each batch's span tree ([`PerfRecord::push_batch`]).
    Harness,
    /// A registry counter (0 when never incremented).
    Counter(&'static str),
    /// A registry gauge (the key stays absent when the gauge was never set).
    Gauge(&'static str),
    /// Quantile `q` of a registry histogram (0 when empty). Span
    /// histograms record microseconds per batch; the record keeps ms.
    Quantile(&'static str, f64),
}

/// Every key a record may carry, with its JSON format and its source, in
/// rendering order.
#[rustfmt::skip]
pub const SCHEMA: &[(&str, Fmt, Source)] = {
    use Fmt::*;
    use Source::*;
    &[
        ("threads", Int, Harness),
        ("churn", Fixed(3), Harness),
        ("inc_total_ms", Fixed(3), Harness),
        ("scratch_total_ms", Fixed(3), Harness),
        ("speedup", Fixed(3), Harness),
        ("eps_ok", Bool, Harness),
        ("final_locality", Fixed(4), Harness),
        ("final_imbalance", Fixed(6), Harness),
        ("validate_total_ms", Fixed(3), Harness),
        ("split_total_ms", Fixed(3), Harness),
        ("place_total_ms", Fixed(3), Harness),
        ("repair_total_ms", Fixed(3), Harness),
        ("commit_total_ms", Fixed(3), Harness),
        ("refine_total_ms", Fixed(3), Harness),
        ("placement_conflicts", Int, Counter("stream.place.conflicts")),
        ("repair_passes", Int, Counter("stream.place.repair_passes")),
        ("rebalance_full_scans", Int, Counter("stream.refine.full_scans")),
        ("snapshot_save_total_ms", Fixed(3), Harness),
        ("snapshot_restore_total_ms", Fixed(3), Harness),
        ("snapshots", Int, Harness),
        ("gd_full_recomputes", Int, Counter("core.gd.grad_full_recomputes")),
        ("gd_delta_iters", Int, Counter("core.gd.grad_delta_iters")),
        ("lookups_per_sec", Fixed(0), Harness),
        ("lookup_p99_us", Fixed(3), Harness),
        ("split_parallel_ranges", Int, Counter("stream.split.parallel_ranges")),
        ("repair_spec_rounds", Int, Counter("stream.repair.spec_rounds")),
        ("compact_parallel_ms", Fixed(3), Gauge("stream.compact.parallel_ms")),
        ("replay_total_ms", Fixed(3), Harness),
        ("replay_batches", Int, Harness),
        ("log_bytes", Int, Harness),
        ("log_rotations", Int, Harness),
        ("followers", Int, Harness),
        ("ingest_batches", Int, Counter("stream.ingest.batches")),
        ("refine_iters_p50", Fixed(3), Quantile("core.gd.refine_iterations", 0.50)),
        ("refine_iters_p99", Fixed(3), Quantile("core.gd.refine_iterations", 0.99)),
        ("validate_p99_ms", Fixed(3), Quantile("span.ingest.validate_us", 0.99)),
        ("split_p99_ms", Fixed(3), Quantile("span.ingest.split_us", 0.99)),
        ("place_p99_ms", Fixed(3), Quantile("span.ingest.place_us", 0.99)),
        ("repair_p99_ms", Fixed(3), Quantile("span.ingest.repair_us", 0.99)),
        ("commit_p99_ms", Fixed(3), Quantile("span.ingest.commit_us", 0.99)),
        ("refine_p99_ms", Fixed(3), Quantile("span.ingest.refine_us", 0.99)),
    ]
};

/// Keys every record carries; a baseline missing one does not parse.
pub const REQUIRED: &[&str] = &[
    "threads",
    "inc_total_ms",
    "scratch_total_ms",
    "speedup",
    "eps_ok",
    "final_locality",
    "final_imbalance",
];

/// Floor (milliseconds) below which a scratch leg cannot anchor the
/// normalized wall-clock: the record serializes at millisecond precision,
/// so a sub-floor denominator is mostly rounding noise. The scratch gate
/// in [`GATES`] rejects such records with a named error.
pub const MIN_SCRATCH_MS: f64 = 0.5;

/// Baseline value (ms) below which a stage-sized normalized gate stays
/// silent — a sub-millisecond quantity is rounding noise.
pub const MIN_STAGE_MS: f64 = 1.0;

/// Floor (µs) a baseline p99 lookup latency is clamped to before the
/// lookup gate compares. The serving histogram quantizes at microsecond
/// resolution and a healthy lookup is tens of nanoseconds, so baselines
/// routinely record 0 — clamping (rather than disarming) keeps the gate
/// armed against a lock or per-call rebuild on the lookup path.
pub const MIN_LOOKUP_P99_US: f64 = 1.0;

/// What a gate does with the two records' values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Policy {
    /// The values must agree within `band`: a baseline recorded at another
    /// thread count, churn fraction or follower count measures a
    /// different workload.
    Match,
    /// The value per unit of same-machine scratch time may exceed the
    /// baseline's by at most `band` (a fraction).
    NormalizedWallclock,
    /// The value may fall at most `band` (absolute) below the baseline's.
    MaxDrop,
    /// The value may not exceed the baseline's (deterministic counts).
    NoIncrease,
    /// Never compared (a row may still require a floor).
    Informational,
}

/// A gate's tolerance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Band {
    Fixed(f64),
    /// The `--max-regress` argument of the run.
    MaxRegress,
}

/// What happens at small values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Floor {
    /// The gate stays off unless the baseline reaches the floor (and the
    /// current run measured something).
    Disarm(f64),
    /// A baseline below the floor is raised to it before comparing.
    Clamp(f64),
    /// Both records must reach the floor, or the gate fails.
    Require(f64),
}

/// One row of the gate table.
#[derive(Clone, Copy, Debug)]
pub struct Gate {
    /// Record keys whose values are summed into the gated quantity.
    pub metric: &'static [&'static str],
    pub policy: Policy,
    pub band: Band,
    pub floor: Option<Floor>,
    /// Names the gate in failure messages.
    pub label: &'static str,
}

/// The gate table. Record keys no row reads are informational: recorded
/// for review, never compared. Wall-clock bands wider than the total's
/// cover small, jittery quantities whose regressions of interest (a
/// serialized fan-out, a quadratic serializer, a lock on the read path,
/// a follower re-verifying the whole log) cost well over 2x.
#[rustfmt::skip]
pub const GATES: &[Gate] = {
    use Band::*;
    use Floor::*;
    use Policy::*;
    const fn gate(metric: &'static [&'static str], policy: Policy, band: Band, floor: Option<Floor>, label: &'static str) -> Gate {
        Gate { metric, policy, band, floor, label }
    }
    &[
        gate(&["threads"], Match, Fixed(0.0), None, "thread-count mismatch"),
        gate(&["churn"], Match, Fixed(1e-9), None, "churn mismatch"),
        gate(&["followers"], Match, Fixed(0.0), None, "follower-count mismatch"),
        gate(&["scratch_total_ms"], Informational, Fixed(0.0), Some(Require(MIN_SCRATCH_MS)), "unusable scratch reference"),
        gate(&["eps_ok"], MaxDrop, Fixed(0.0), Some(Require(1.0)), "ε guarantee violated"),
        gate(&["inc_total_ms"], NormalizedWallclock, MaxRegress, None, "normalized wall-clock"),
        gate(&["final_locality"], MaxDrop, Fixed(0.10), None, "final locality"),
        gate(&["place_total_ms", "repair_total_ms"], NormalizedWallclock, Fixed(0.75), Some(Disarm(MIN_STAGE_MS)), "placement stage"),
        gate(&["snapshot_save_total_ms", "snapshot_restore_total_ms"], NormalizedWallclock, Fixed(1.0), Some(Disarm(MIN_STAGE_MS)), "snapshot overhead"),
        gate(&["refine_p99_ms"], NormalizedWallclock, MaxRegress, Some(Disarm(MIN_STAGE_MS)), "refine-stage p99"),
        gate(&["lookup_p99_us"], NormalizedWallclock, Fixed(1.0), Some(Clamp(MIN_LOOKUP_P99_US)), "lookup p99"),
        gate(&["replay_total_ms"], NormalizedWallclock, Fixed(1.0), Some(Disarm(MIN_STAGE_MS)), "follower replay lag"),
        gate(&["rebalance_full_scans"], NoIncrease, Fixed(0.0), None, "rebalance full scans"),
    ]
};

/// One bench run: named scalars plus the per-batch breakdown.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PerfRecord {
    values: BTreeMap<&'static str, f64>,
    pub batches: Vec<BatchPerf>,
}

fn schema_key(key: &str) -> Option<(&'static str, Fmt)> {
    SCHEMA
        .iter()
        .find(|(k, ..)| *k == key)
        .map(|&(k, fmt, _)| (k, fmt))
}

impl PerfRecord {
    /// An empty record of a run at `threads` worker threads and `churn`,
    /// with ε held and zero incremental and scratch time so far.
    pub fn new(threads: usize, churn: f64) -> Self {
        let mut r = Self::default();
        for (key, v) in [
            ("threads", threads as f64),
            ("churn", churn),
            ("eps_ok", 1.0),
            ("inc_total_ms", 0.0),
            ("scratch_total_ms", 0.0),
        ] {
            r.set(key, v);
        }
        r
    }

    /// The value of `key`, if the record carries it.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }

    /// The value of `key`, 0 when the record does not carry it.
    pub fn value(&self, key: &str) -> f64 {
        self.get(key).unwrap_or(0.0)
    }

    /// Sets `key`. Panics on a key outside [`SCHEMA`] — a typo in a bin,
    /// not a runtime condition.
    pub fn set(&mut self, key: &str, value: f64) {
        let (key, _) = schema_key(key).unwrap_or_else(|| panic!("{key:?} is not a record key"));
        self.values.insert(key, value);
    }

    /// Adds `delta` to `key` (absent counts as 0).
    pub fn add(&mut self, key: &str, delta: f64) {
        self.set(key, self.value(key) + delta);
    }

    /// Folds one ingested batch in: its wall-clock, the stage totals from
    /// its span tree, the ε check against `eps`, and a per-batch row
    /// (scratch time 0 until [`Self::add_scratch`]).
    pub fn push_batch(
        &mut self,
        batch: usize,
        report: &BatchReport,
        inc: Duration,
        cut_edges: usize,
        eps: f64,
    ) {
        let inc_ms = inc.as_secs_f64() * 1e3;
        self.add("inc_total_ms", inc_ms);
        let t = report.timings();
        for (key, ms) in [
            ("validate_total_ms", t.validate_ms),
            ("split_total_ms", t.split_ms),
            ("place_total_ms", t.place_ms),
            ("repair_total_ms", t.repair_ms),
            ("commit_total_ms", t.commit_ms),
            ("refine_total_ms", t.refine_ms),
        ] {
            self.add(key, ms);
        }
        if report.max_imbalance > eps + 1e-9 {
            self.set("eps_ok", 0.0);
        }
        self.batches.push(BatchPerf {
            batch,
            inc_ms,
            scratch_ms: 0.0,
            cut_edges,
            imbalance: report.max_imbalance,
            locality: report.edge_locality,
        });
    }

    /// Charges a scratch solve to the run and to the latest batch.
    pub fn add_scratch(&mut self, elapsed: Duration) {
        let ms = elapsed.as_secs_f64() * 1e3;
        self.add("scratch_total_ms", ms);
        if let Some(last) = self.batches.last_mut() {
            last.scratch_ms += ms;
        }
    }

    /// Reads every registry-sourced [`SCHEMA`] key from `m`.
    pub fn read_registry(&mut self, m: &MetricsRegistry) {
        for &(key, _, source) in SCHEMA {
            match source {
                Source::Harness => {}
                Source::Counter(name) => self.set(key, m.counter(name) as f64),
                Source::Gauge(name) => {
                    if let Some(g) = m.gauge(name) {
                        self.set(key, g);
                    }
                }
                Source::Quantile(name, q) => {
                    let v = m.histogram(name).map_or(0, |h| h.quantile(q)) as f64;
                    self.set(key, if name.ends_with("_us") { v / 1000.0 } else { v });
                }
            }
        }
    }

    /// Closes the record: final partition quality and the headline
    /// speedup `scratch_total_ms / inc_total_ms`.
    pub fn finish(&mut self, final_locality: f64, final_imbalance: f64) {
        self.set("final_locality", final_locality);
        self.set("final_imbalance", final_imbalance);
        let inc = self.value("inc_total_ms");
        let scratch = self.value("scratch_total_ms");
        self.set("speedup", scratch / inc.max(1e-9));
    }

    /// Normalized wall-clock: incremental time per unit of scratch time on
    /// the same machine (lower is better; `1 / speedup`).
    pub fn normalized_wallclock(&self) -> f64 {
        self.normalized(self.value("inc_total_ms"))
    }

    /// `value` per unit of this record's scratch time. The denominator is
    /// clamped to [`MIN_SCRATCH_MS`] so a degenerate record never yields
    /// `inf`/NaN (the scratch gate refuses such records anyway).
    fn normalized(&self, value: f64) -> f64 {
        value
            / self
                .get("scratch_total_ms")
                .unwrap_or(0.0)
                .max(MIN_SCRATCH_MS)
    }

    /// Serializes in [`SCHEMA`] order (2-space indent) so baselines diff
    /// cleanly in review.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        for &(key, fmt, _) in SCHEMA {
            let Some(v) = self.get(key) else { continue };
            let _ = match fmt {
                Fmt::Int => writeln!(s, "  \"{key}\": {},", v as u64),
                Fmt::Bool => writeln!(s, "  \"{key}\": {},", v != 0.0),
                Fmt::Fixed(p) => writeln!(s, "  \"{key}\": {v:.p$},"),
            };
        }
        s.push_str("  \"batches\": [\n");
        for (i, b) in self.batches.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"batch\": {}, \"inc_ms\": {:.3}, \"scratch_ms\": {:.3}, \
                 \"cut_edges\": {}, \"imbalance\": {:.6}, \"locality\": {:.4}}}",
                b.batch, b.inc_ms, b.scratch_ms, b.cut_edges, b.imbalance, b.locality
            );
            s.push_str(if i + 1 < self.batches.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses the format written by [`Self::to_json`]. Tolerates
    /// whitespace and key order; rejects unknown, duplicated, missing
    /// required and malformed keys by name.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let mut record = Self::default();
        let mut batches_src = None;
        for (key, value) in top_level_pairs(text) {
            if key == "batches" {
                if batches_src.replace(value).is_some() {
                    return Err("duplicate key \"batches\"".into());
                }
                continue;
            }
            let (key, fmt) =
                schema_key(&key).ok_or_else(|| format!("unknown perf-record key \"{key}\""))?;
            let v = match (fmt, value.as_str()) {
                (Fmt::Bool, "true") => 1.0,
                (Fmt::Bool, "false") => 0.0,
                (Fmt::Bool, v) => return Err(format!("\"{key}\" is not a bool: {v}")),
                (_, v) => v
                    .parse()
                    .map_err(|_| format!("\"{key}\" is not a number: {v}"))?,
            };
            if record.values.insert(key, v).is_some() {
                return Err(format!("duplicate key \"{key}\""));
            }
        }
        if let Some(key) = REQUIRED.iter().find(|k| record.get(k).is_none()) {
            return Err(format!("record is missing \"{key}\""));
        }
        let batches_src = batches_src.ok_or("record is missing \"batches\"")?;
        // Each batch object is flat: split it into `key: value` pairs.
        for obj in batches_src.split('{').skip(1) {
            let obj = obj.split('}').next().unwrap_or("");
            let entries: Vec<(&str, &str)> = obj
                .split(',')
                .filter_map(|pair| {
                    let (k, v) = pair.split_once(':')?;
                    Some((k.trim().trim_matches('"'), v.trim()))
                })
                .collect();
            let num = |key: &str| -> Result<f64, String> {
                entries
                    .iter()
                    .find(|(k, _)| *k == key)
                    .ok_or_else(|| format!("batch entry missing \"{key}\""))?
                    .1
                    .parse()
                    .map_err(|_| format!("batch \"{key}\" is not a number"))
            };
            record.batches.push(BatchPerf {
                batch: num("batch")? as usize,
                inc_ms: num("inc_ms")?,
                scratch_ms: num("scratch_ms")?,
                cut_edges: num("cut_edges")? as usize,
                imbalance: num("imbalance")?,
                locality: num("locality")?,
            });
        }
        Ok(record)
    }

    /// Reads a record file.
    pub fn load(path: &str) -> Result<Self, String> {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Self::from_json(&text))
            .map_err(|e| format!("cannot load record {path}: {e}"))
    }
}

/// Splits the top-level `"key": value` pairs of a flat JSON object.
fn top_level_pairs(src: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut token = String::new();
    for c in src.chars() {
        match c {
            '{' | '[' => {
                depth += 1;
                if depth > 1 {
                    token.push(c);
                }
            }
            '}' | ']' => {
                depth -= 1;
                if depth >= 1 {
                    token.push(c);
                }
            }
            ',' if depth == 1 => out.push(std::mem::take(&mut token)),
            _ if depth >= 1 => token.push(c),
            _ => {}
        }
    }
    if !token.trim().is_empty() {
        out.push(token);
    }
    out.into_iter()
        .filter_map(|pair| {
            let (k, v) = pair.split_once(':')?;
            Some((k.trim().trim_matches('"').to_string(), v.trim().to_string()))
        })
        .collect()
}

/// Gate verdict: evaluates every row of [`GATES`] against the two
/// records; `Err` carries the failure reasons, `; `-joined.
pub fn check_regression(
    current: &PerfRecord,
    baseline: &PerfRecord,
    max_regression: f64,
) -> Result<(), String> {
    let reasons: Vec<String> = GATES
        .iter()
        .filter_map(|g| evaluate(g, current, baseline, max_regression))
        .collect();
    if reasons.is_empty() {
        Ok(())
    } else {
        Err(reasons.join("; "))
    }
}

/// Sum of `gate.metric` on `record`, if it carries every key.
fn metric_value(gate: &Gate, record: &PerfRecord) -> Option<f64> {
    gate.metric.iter().map(|k| record.get(k)).sum()
}

fn evaluate(gate: &Gate, current: &PerfRecord, baseline: &PerfRecord, max: f64) -> Option<String> {
    let name = gate.metric.join("+");
    let (cur, base) = (metric_value(gate, current)?, metric_value(gate, baseline)?);
    if let Some(Floor::Require(floor)) = gate.floor {
        for (who, v) in [("current run", cur), ("baseline", base)] {
            if v < floor {
                return Some(format!(
                    "{}: {who}'s {name} is {v:.4}, below the {floor} floor",
                    gate.label
                ));
            }
        }
    }
    let band = match gate.band {
        Band::Fixed(b) => b,
        Band::MaxRegress => max,
    };
    match gate.policy {
        Policy::Informational => None,
        Policy::Match => ((cur - base).abs() > band).then(|| {
            format!(
                "{}: run used {name} {cur}, baseline {base} — gate each {name} against a \
                 baseline recorded at that value",
                gate.label
            )
        }),
        Policy::MaxDrop => (cur < base - band).then(|| {
            format!(
                "{}: {name} {cur:.4} vs baseline {base:.4} dropped by more than {band}",
                gate.label
            )
        }),
        Policy::NoIncrease => (cur > base).then(|| {
            format!(
                "{} increased: {name} {cur} vs baseline {base} — a deterministic count may \
                 not grow",
                gate.label
            )
        }),
        Policy::NormalizedWallclock => {
            let base = match gate.floor {
                Some(Floor::Disarm(floor)) if base < floor || cur <= 0.0 => return None,
                Some(Floor::Clamp(floor)) => base.max(floor),
                _ => base,
            };
            let (cur_ratio, base_ratio) = (current.normalized(cur), baseline.normalized(base));
            (cur_ratio > base_ratio * (1.0 + band)).then(|| {
                format!(
                    "{} regressed {:.0}% (limit {:.0}%): {name} {cur:.3} ({cur_ratio:.6} per \
                     scratch ms) vs baseline {base:.3} ({base_ratio:.6}) — slower relative to \
                     the same-machine scratch solve",
                    gate.label,
                    (cur_ratio / base_ratio - 1.0) * 100.0,
                    band * 100.0,
                )
            })
        }
    }
}

/// Same-machine parallel-scaling check: the multi-threaded run's
/// incremental wall-clock must beat the serial run's by at least
/// `min_speedup` (e.g. `1.2`). Both records come from the same CI job, so
/// raw wall-clock *is* comparable here. This is what catches a silently
/// serialized `par_map` / round scheduler — the baseline gate alone
/// cannot, because it never compares thread counts.
pub fn check_parallel_speedup(
    parallel: &PerfRecord,
    serial: &PerfRecord,
    min_speedup: f64,
) -> Result<(), String> {
    let threads = |r: &PerfRecord| r.value("threads");
    let inc = |r: &PerfRecord| r.value("inc_total_ms");
    if threads(parallel) <= threads(serial) {
        return Err(format!(
            "parallel record uses {} threads, serial record {} — nothing to compare",
            threads(parallel),
            threads(serial)
        ));
    }
    let achieved = inc(serial) / inc(parallel).max(1e-9);
    if achieved < min_speedup {
        return Err(format!(
            "threads={} incremental path is only {achieved:.2}x the threads={} run \
             (need >= {min_speedup:.2}x): {:.1}ms vs {:.1}ms",
            threads(parallel),
            threads(serial),
            inc(parallel),
            inc(serial)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fully populated record. Time-valued fields derive from `inc` so
    /// machine-speed cancellation holds; counts stay fixed.
    fn record(inc: f64, scratch: f64, eps_ok: bool, locality: f64) -> PerfRecord {
        let mut r = PerfRecord::new(1, 0.0);
        for (key, v) in [
            ("inc_total_ms", inc),
            ("scratch_total_ms", scratch),
            ("speedup", scratch / inc),
            ("eps_ok", if eps_ok { 1.0 } else { 0.0 }),
            ("final_locality", locality),
            ("final_imbalance", 0.048),
            ("validate_total_ms", inc * 0.05),
            ("split_total_ms", inc * 0.2),
            ("place_total_ms", inc * 0.4),
            ("repair_total_ms", inc * 0.05),
            ("commit_total_ms", inc * 0.1),
            ("refine_total_ms", inc * 0.2),
            ("placement_conflicts", 17.0),
            ("repair_passes", 3.0),
            ("rebalance_full_scans", 2.0),
            ("snapshot_save_total_ms", inc * 0.1),
            ("snapshot_restore_total_ms", inc * 0.15),
            ("snapshots", 2.0),
            ("gd_full_recomputes", 40.0),
            ("gd_delta_iters", 360.0),
            ("lookups_per_sec", 4.0e6),
            ("lookup_p99_us", inc * 0.4),
            ("split_parallel_ranges", 12.0),
            ("repair_spec_rounds", 2.0),
            ("compact_parallel_ms", inc * 0.06),
            ("replay_total_ms", inc * 0.5),
            ("replay_batches", 16.0),
            ("log_bytes", 8192.0),
            ("log_rotations", 2.0),
            ("followers", 2.0),
            ("ingest_batches", 5.0),
            ("refine_iters_p50", 8.0),
            ("refine_iters_p99", 24.0),
            ("validate_p99_ms", inc * 0.02),
            ("split_p99_ms", inc * 0.08),
            ("place_p99_ms", inc * 0.15),
            ("repair_p99_ms", inc * 0.02),
            ("commit_p99_ms", inc * 0.04),
            ("refine_p99_ms", inc * 0.3),
        ] {
            r.set(key, v);
        }
        r.batches.push(BatchPerf {
            batch: 1,
            inc_ms: inc,
            scratch_ms: scratch,
            cut_edges: 1234,
            imbalance: 0.048,
            locality,
        });
        r
    }

    /// `r`'s JSON without the lines of `keys` — the record of a bin that
    /// does not measure them.
    fn without(r: &PerfRecord, keys: &[&str]) -> String {
        r.to_json()
            .lines()
            .filter(|l| keys.iter().all(|k| !l.contains(&format!("\"{k}\""))))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// A record whose `key` holds a string must fail to parse, naming it.
    fn assert_malformed_is_named(r: &PerfRecord, key: &str) {
        let needle = format!("\"{key}\": ");
        let json: String = r
            .to_json()
            .lines()
            .map(|l| match l.find(&needle) {
                Some(at) => format!("{}\"x\",\n", &l[..at + needle.len()]),
                None => format!("{l}\n"),
            })
            .collect();
        let err = PerfRecord::from_json(&json).unwrap_err();
        assert!(err.contains(key), "{err}");
    }

    /// `keys` round-trip; a record without them parses with the keys
    /// absent and re-renders without them; every gate reading them stays
    /// off against it, whichever side lacks them; a malformed value is a
    /// named error.
    fn assert_optional_keys(keys: &[&str]) {
        let r = record(12.5, 750.0, true, 0.61);
        let parsed = PerfRecord::from_json(&r.to_json()).unwrap();
        let bare = PerfRecord::from_json(&without(&r, keys)).unwrap();
        let mut regressed = r.clone();
        for key in keys {
            let v = r.get(key).unwrap();
            assert!((parsed.get(key).unwrap() - v).abs() < 1e-3, "{key}");
            assert_eq!(bare.get(key), None, "{key}");
            assert!(!bare.to_json().contains(&format!("\"{key}\"")), "{key}");
            regressed.set(key, v * 100.0 + 100.0);
            assert_malformed_is_named(&r, key);
        }
        assert!(check_regression(&regressed, &bare, 0.30).is_ok());
        assert!(check_regression(&bare, &regressed, 0.30).is_ok());
    }

    /// `r` with `changes` applied.
    fn with(r: &PerfRecord, changes: &[(&str, f64)]) -> PerfRecord {
        let mut r = r.clone();
        for &(key, v) in changes {
            r.set(key, v);
        }
        r
    }

    /// Against the `record(10.0, 600.0, ..)` baseline: applying `fail`
    /// trips the gate whose message contains `reason`, applying `pass`
    /// stays inside its band, and a 3x slower machine (which scales every
    /// time and the scratch denominator together) passes.
    fn assert_gate(reason: &str, fail: &[(&str, f64)], pass: &[(&str, f64)]) -> PerfRecord {
        let base = record(10.0, 600.0, true, 0.60);
        let err = check_regression(&with(&base, fail), &base, 0.30).unwrap_err();
        assert!(err.contains(reason), "{err}");
        assert!(check_regression(&with(&base, pass), &base, 0.30).is_ok());
        let slow_machine = record(30.0, 1800.0, true, 0.60);
        assert!(check_regression(&slow_machine, &base, 0.30).is_ok());
        with(&base, fail)
    }

    #[test]
    fn json_round_trips() {
        let r = record(12.5, 750.0, true, 0.61);
        let parsed = PerfRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.get("threads"), Some(1.0));
        assert!((parsed.get("speedup").unwrap() - 60.0).abs() < 1e-3);
        assert_eq!(parsed.get("eps_ok"), Some(1.0));
        assert_eq!(parsed.batches.len(), 1);
        assert_eq!(parsed.batches[0].cut_edges, 1234);
        assert!((parsed.batches[0].inc_ms - 12.5).abs() < 1e-9);
        assert!((parsed.get("final_locality").unwrap() - 0.61).abs() < 1e-9);
        // Rendering is stable: parse → render reproduces the text.
        assert_eq!(parsed.to_json(), r.to_json());
        assert!(r.to_json().contains("\"eps_ok\": true,"));
    }

    #[test]
    fn parser_rejects_missing_and_malformed_fields() {
        assert!(PerfRecord::from_json("{}").is_err());
        assert!(PerfRecord::from_json("{\"threads\": 1}").is_err());
        let r = record(10.0, 600.0, true, 0.6);
        assert_malformed_is_named(&r, "threads");
        assert_malformed_is_named(&r, "eps_ok");
        for key in REQUIRED {
            let err = PerfRecord::from_json(&without(&r, &[key])).unwrap_err();
            assert!(err.contains(key), "{err}");
        }
        let typo = r.to_json().replace("\"speedup\"", "\"speedpu\"");
        let err = PerfRecord::from_json(&typo).unwrap_err();
        assert!(err.contains("unknown perf-record key \"speedpu\""), "{err}");
        let dup = r
            .to_json()
            .replace("\"churn\"", "\"churn\": 0.2, \"churn\"");
        let err = PerfRecord::from_json(&dup).unwrap_err();
        assert!(err.contains("duplicate key \"churn\""), "{err}");
    }

    #[test]
    fn gate_table_pins_every_gate() {
        use Band::*;
        use Floor::*;
        use Policy::*;
        let expected: &[(&[&str], Policy, Band, Option<Floor>)] = &[
            (&["threads"], Match, Fixed(0.0), None),
            (&["churn"], Match, Fixed(1e-9), None),
            (&["followers"], Match, Fixed(0.0), None),
            (
                &["scratch_total_ms"],
                Informational,
                Fixed(0.0),
                Some(Require(0.5)),
            ),
            (&["eps_ok"], MaxDrop, Fixed(0.0), Some(Require(1.0))),
            (&["inc_total_ms"], NormalizedWallclock, MaxRegress, None),
            (&["final_locality"], MaxDrop, Fixed(0.10), None),
            (
                &["place_total_ms", "repair_total_ms"],
                NormalizedWallclock,
                Fixed(0.75),
                Some(Disarm(1.0)),
            ),
            (
                &["snapshot_save_total_ms", "snapshot_restore_total_ms"],
                NormalizedWallclock,
                Fixed(1.0),
                Some(Disarm(1.0)),
            ),
            (
                &["refine_p99_ms"],
                NormalizedWallclock,
                MaxRegress,
                Some(Disarm(1.0)),
            ),
            (
                &["lookup_p99_us"],
                NormalizedWallclock,
                Fixed(1.0),
                Some(Clamp(1.0)),
            ),
            (
                &["replay_total_ms"],
                NormalizedWallclock,
                Fixed(1.0),
                Some(Disarm(1.0)),
            ),
            (&["rebalance_full_scans"], NoIncrease, Fixed(0.0), None),
        ];
        assert_eq!(GATES.len(), expected.len(), "every gate is pinned here");
        for (metric, policy, band, floor) in expected {
            let g = GATES
                .iter()
                .find(|g| g.metric == *metric)
                .unwrap_or_else(|| panic!("no gate reads {metric:?}"));
            assert_eq!(
                (g.policy, g.band, g.floor),
                (*policy, *band, *floor),
                "{metric:?}"
            );
        }
        // Gates name record keys, each key is read by at most one gate,
        // and every required key is on the schema.
        let gated = GATES.iter().flat_map(|g| g.metric.iter().copied());
        for key in gated.chain(REQUIRED.iter().copied()) {
            assert!(schema_key(key).is_some(), "{key} is not on the schema");
        }
        for (key, ..) in SCHEMA {
            let n = GATES.iter().filter(|g| g.metric.contains(key)).count();
            assert!(n <= 1, "{key} is read by {n} gates");
        }
    }

    #[test]
    fn gate_passes_equal_and_better_runs() {
        let base = record(10.0, 600.0, true, 0.60);
        assert!(check_regression(&base, &base, 0.30).is_ok());
        // 2x faster incremental path: obviously fine.
        let faster = record(5.0, 600.0, true, 0.60);
        assert!(check_regression(&faster, &base, 0.30).is_ok());
        // 25% slower: inside the 30% budget.
        let slower = record(12.5, 600.0, true, 0.60);
        assert!(check_regression(&slower, &base, 0.30).is_ok());
    }

    #[test]
    fn gate_fails_regressions() {
        let base = record(10.0, 600.0, true, 0.60);
        // 50% slower normalized wall-clock.
        let slow = record(15.0, 600.0, true, 0.60);
        let err = check_regression(&slow, &base, 0.30).unwrap_err();
        assert!(err.contains("normalized wall-clock"), "{err}");
        // ε violation fails even when fast.
        let broken = record(1.0, 600.0, false, 0.60);
        assert!(check_regression(&broken, &base, 0.30)
            .unwrap_err()
            .contains("ε"));
        // Quality collapse fails even when fast.
        let hollow = record(1.0, 600.0, true, 0.40);
        assert!(check_regression(&hollow, &base, 0.30)
            .unwrap_err()
            .contains("locality"));
    }

    #[test]
    fn pipeline_fields_round_trip_and_default_on_legacy_baselines() {
        assert_optional_keys(&[
            "validate_total_ms",
            "split_total_ms",
            "place_total_ms",
            "repair_total_ms",
            "commit_total_ms",
            "refine_total_ms",
            "placement_conflicts",
            "repair_passes",
            "rebalance_full_scans",
        ]);
    }

    #[test]
    fn gate_catches_placement_stage_regression() {
        // place+repair = 4.5 ms. Total wall-clock within the 30% budget,
        // but the placement stage alone blew up ~3.7x — exactly the shape
        // of a serialized speculative fan-out on a refinement-heavy leg.
        let slow_place = assert_gate(
            "placement stage regressed",
            &[("inc_total_ms", 12.0), ("place_total_ms", 16.0)],
            &[("place_total_ms", 6.0)],
        );
        // A baseline whose stage totals are below the floor disarms it.
        let quiet = record(10.0, 600.0, true, 0.60);
        let quiet = with(&quiet, &[("place_total_ms", 0.0), ("repair_total_ms", 0.0)]);
        assert!(check_regression(&slow_place, &quiet, 0.30).is_ok());
    }

    #[test]
    fn snapshot_fields_round_trip_and_default_on_v2_baselines() {
        assert_optional_keys(&[
            "snapshot_save_total_ms",
            "snapshot_restore_total_ms",
            "snapshots",
        ]);
    }

    #[test]
    fn gate_catches_snapshot_overhead_regression() {
        // save+restore = 2.5 ms; 7.0 ms is 2.8x, past the 2x band.
        let bloated = assert_gate(
            "snapshot overhead regressed",
            &[
                ("snapshot_save_total_ms", 4.0),
                ("snapshot_restore_total_ms", 3.0),
            ],
            &[
                ("snapshot_save_total_ms", 2.0),
                ("snapshot_restore_total_ms", 2.0),
            ],
        );
        // A current run that measured nothing skips the gate, as does a
        // baseline whose totals are under the measurement floor.
        let base = record(10.0, 600.0, true, 0.60);
        let snapless = with(
            &base,
            &[
                ("snapshot_save_total_ms", 0.0),
                ("snapshot_restore_total_ms", 0.0),
            ],
        );
        assert!(check_regression(&snapless, &base, 0.30).is_ok());
        assert!(check_regression(&bloated, &snapless, 0.30).is_ok());
    }

    #[test]
    fn gate_fails_when_full_scans_increase() {
        let worse = assert_gate(
            "full scans increased",
            &[("rebalance_full_scans", 5.0)],
            &[("rebalance_full_scans", 0.0)],
        );
        // A side without the count skips.
        let base = record(10.0, 600.0, true, 0.60);
        let uncounted = PerfRecord::from_json(&without(&base, &["rebalance_full_scans"])).unwrap();
        assert!(check_regression(&worse, &uncounted, 0.30).is_ok());
        assert!(check_regression(&uncounted, &worse, 0.30).is_ok());
    }

    #[test]
    fn gate_rejects_thread_count_mismatch() {
        assert_gate("thread-count mismatch", &[("threads", 4.0)], &[]);
    }

    #[test]
    fn gate_rejects_churn_mismatch() {
        let churned = assert_gate("churn mismatch", &[("churn", 0.2)], &[]);
        // Matching churn fractions gate normally.
        assert!(check_regression(&churned, &churned, 0.30).is_ok());
    }

    #[test]
    fn churn_field_round_trips_and_defaults() {
        assert_optional_keys(&["churn"]);
    }

    #[test]
    fn gate_names_a_sub_floor_scratch_leg() {
        // A sub-millisecond scratch leg serializes as ~0.000 ms; the gate
        // must refuse with a named error instead of comparing inf/NaN.
        let base = record(10.0, 600.0, true, 0.60);
        let degenerate = record(0.01, 0.0, true, 0.60);
        assert!(degenerate.normalized_wallclock().is_finite());
        let err = check_regression(&degenerate, &base, 0.30).unwrap_err();
        assert!(err.contains("unusable scratch reference"), "{err}");
        assert!(err.contains("current run"), "{err}");
        // Same for a poisoned committed baseline.
        let err = check_regression(&base, &degenerate, 0.30).unwrap_err();
        assert!(err.contains("baseline"), "{err}");
        // And round-tripping the degenerate record through JSON keeps the
        // verdict (0.0 stays 0.0, not NaN).
        let reparsed = PerfRecord::from_json(&degenerate.to_json()).unwrap();
        assert!(check_regression(&reparsed, &base, 0.30).is_err());
    }

    #[test]
    fn parallel_speedup_check() {
        let serial = record(100.0, 600.0, true, 0.60);
        let mut par = record(60.0, 600.0, true, 0.60);
        par.set("threads", 4.0);
        assert!(check_parallel_speedup(&par, &serial, 1.2).is_ok());
        // 1.05x is below the 1.2x bar.
        par.set("inc_total_ms", 95.0);
        let err = check_parallel_speedup(&par, &serial, 1.2).unwrap_err();
        assert!(err.contains("only 1.05x"), "{err}");
        // Equal thread counts are a misuse, not a pass.
        let same = record(1.0, 600.0, true, 0.60);
        assert!(check_parallel_speedup(&same, &serial, 1.2).is_err());
    }

    #[test]
    fn quantiles_round_trip_and_default_on_v3_baselines() {
        let keys: Vec<&str> = SCHEMA
            .iter()
            .filter(|(.., source)| matches!(source, Source::Quantile(..)))
            .map(|(key, ..)| *key)
            .collect();
        assert_optional_keys(&keys);
    }

    #[test]
    fn gd_counters_round_trip_and_default_on_v4_baselines() {
        assert_optional_keys(&["gd_full_recomputes", "gd_delta_iters"]);
    }

    #[test]
    fn lookup_fields_round_trip_and_default_on_v5_baselines() {
        assert_optional_keys(&["lookups_per_sec", "lookup_p99_us"]);
    }

    #[test]
    fn stage_parallelism_fields_round_trip_and_default_on_v6_baselines() {
        assert_optional_keys(&[
            "split_parallel_ranges",
            "repair_spec_rounds",
            "compact_parallel_ms",
            "ingest_batches",
        ]);
    }

    #[test]
    fn replication_fields_round_trip_and_default_on_v7_baselines() {
        assert_optional_keys(&[
            "replay_total_ms",
            "replay_batches",
            "log_bytes",
            "log_rotations",
            "followers",
        ]);
    }

    #[test]
    fn gate_catches_replay_lag_regression() {
        // replay_total = 5.0 ms; 3x is past the 2x band.
        let lagging = assert_gate(
            "follower replay lag regressed",
            &[("replay_total_ms", 15.0)],
            &[("replay_total_ms", 9.0)],
        );
        // A follower-count mismatch is its own failure, not a comparison.
        assert_gate("follower-count mismatch", &[("followers", 3.0)], &[]);
        // A sub-floor baseline replay total disarms the lag band.
        let tiny = with(
            &record(10.0, 600.0, true, 0.60),
            &[("replay_total_ms", 0.4)],
        );
        assert!(check_regression(&lagging, &tiny, 0.30).is_ok());
    }

    #[test]
    fn gate_catches_lookup_p99_regression() {
        // lookup_p99 = 4.0 µs; 3x is past the 2x band.
        let slow = assert_gate(
            "lookup p99 regressed",
            &[("lookup_p99_us", 12.0)],
            &[("lookup_p99_us", 7.0)],
        );
        // A sub-floor baseline (a healthy run measures p99 = 0 µs at
        // histogram resolution) clamps to the floor instead of disarming:
        // 12 µs against a clamped 1 µs baseline still fires…
        let tiny = with(&record(10.0, 600.0, true, 0.60), &[("lookup_p99_us", 0.0)]);
        let err = check_regression(&slow, &tiny, 0.30).unwrap_err();
        assert!(err.contains("lookup p99 regressed"), "{err}");
        // …while staying inside the clamped band passes (0 µs vs 0 µs is
        // the steady state of every healthy baseline comparison).
        let still_fast = with(&tiny, &[("lookup_p99_us", 1.8)]);
        assert!(check_regression(&still_fast, &tiny, 0.30).is_ok());
        assert!(check_regression(&tiny, &tiny, 0.30).is_ok());
    }

    #[test]
    fn gate_catches_refine_tail_regression() {
        // refine_p99 = 3.0 ms. Totals unchanged — one pathological batch
        // hides in the averages — but the tail blew up 2x, past 30%.
        let tail = assert_gate(
            "refine-stage p99 regressed",
            &[("refine_p99_ms", 6.0)],
            &[("refine_p99_ms", 3.5)],
        );
        // A baseline tail under the measurement floor → gate off.
        let tiny = with(&record(10.0, 600.0, true, 0.60), &[("refine_p99_ms", 0.4)]);
        assert!(check_regression(&tail, &tiny, 0.30).is_ok());
    }

    #[test]
    fn machine_speed_cancels_out() {
        // A 3x slower machine scales both inc and scratch: the gate must
        // not fire.
        let base = record(10.0, 600.0, true, 0.60);
        let slow_machine = record(30.0, 1800.0, true, 0.60);
        assert!(check_regression(&slow_machine, &base, 0.30).is_ok());
    }

    #[test]
    fn committed_baselines_parse() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for name in [
            "",
            "_churn",
            "_place",
            "_refine",
            "_snapshot",
            "_serve",
            "_replicate",
        ] {
            let r = PerfRecord::load(&format!("{root}/BENCH_stream{name}.json")).unwrap();
            assert!(check_regression(&r, &r, 0.30).is_ok(), "{name}");
        }
    }
}
