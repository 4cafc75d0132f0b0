//! # td-bench — the repository's one benchmark
//!
//! Four workloads (`paper_full`, `scale_100k`, `scale_100k_sharded`,
//! `serve_mix`), four end-to-end metrics every workload prints from an
//! untraced run, and per-layer probes plus a span file from a traced run.
//! `BENCHMARK.json` at the repository root declares all of it to the
//! driver; `README.md` beside this crate is the glossary.
//!
//! Layers are measured from outside: every number comes from timing calls
//! into public functions of the simulator's crates, or from talking to
//! the `td-serve` binary over its socket.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod host;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod serve;
pub mod sim;
pub mod stats;
pub mod trace;
