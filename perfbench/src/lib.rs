//! The repository's end-to-end and per-layer benchmark; see
//! `BENCHMARK.json` at the repository root and `perfbench/README.md`.

pub mod check;
pub mod gen;
pub mod run;
pub mod serve;
pub mod stats;
pub mod workload;
