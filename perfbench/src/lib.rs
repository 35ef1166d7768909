//! End-to-end and per-layer benchmark of the photon-zo workspace.
//!
//! Three seeded workloads — two Table-1 training cells and the on-chip
//! serving simulators — timed from outside the program: untraced runs give
//! the end-to-end metrics, a traced run wraps the chip in [`chip::TimedChip`]
//! and the calls into each layer in [`spans::Recorder`] spans.

#![warn(missing_docs)]

pub mod cells;
pub mod chip;
pub mod reference;
pub mod report;
pub mod serve;
pub mod spans;
