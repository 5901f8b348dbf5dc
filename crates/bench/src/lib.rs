//! # mdbgp-bench — experiment harness
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus the
//! Criterion micro-benchmarks under `benches/`. The library part hosts the
//! shared machinery:
//!
//! * [`datasets`] — the registry of scaled-down synthetic proxies standing
//!   in for the paper's SNAP / Facebook graphs (see DESIGN.md for the
//!   substitution rationale),
//! * [`policies`] — the partitioning policies compared throughout §4
//!   (hash / vertex / edge / vertex-edge and the baseline algorithms),
//! * [`table`] — plain-text tables and bar charts that mimic the paper's
//!   figures in a terminal,
//! * [`perfgate`] — the CI perf-regression gate: the flat perf record
//!   the stream bins emit with `--json-out` and the declarative gate table
//!   that compares it, machine-normalized, against a committed
//!   `BENCH_stream*.json` baseline,
//! * [`churn`] — id tracking and removal-batch generation for driving
//!   deletion workloads through the streaming harnesses,
//! * [`workload`] — the stream benches' shared flag parser, history
//!   graph, bootstrap configuration and batch generator.

pub mod churn;
pub mod curves;
pub mod datasets;
pub mod perfgate;
pub mod policies;
pub mod resume;
pub mod table;
pub mod workload;

pub use datasets::Dataset;
pub use policies::Policy;
