//! # photon-bench
//!
//! The benchmark and reproduction harness: one binary per table/figure of
//! the paper's evaluation (see `src/bin/`), plus Criterion kernels for the
//! computational hot paths (see `benches/`). Shared experiment plumbing
//! and the benches' `BENCH_*.json` writer live here.

#![warn(missing_docs)]

pub mod harness;
pub mod report;
