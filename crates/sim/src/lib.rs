//! # photon-sim
//!
//! Deterministic discrete-event serving simulator for the photon-zo chip
//! farm: the macro-level answer to "what are p50/p99/p999 and throughput
//! when a million requests hit the farm, and what happens when replicas
//! die?".
//!
//! One event loop drives seeded open-loop traffic — Poisson and bursty
//! on/off arrival processes — through bounded
//! per-tenant [`photon_farm::RequestQueue`]s and the microbatch
//! [`photon_farm::CoalescePolicy`] onto a group of replicas, charging each
//! dispatch virtual time from a [`TierCostModel`] whose constants are set
//! by hand: 7.4 µs per call plus 0.25 µs per request at f64, divided by
//! stand-in factors on the cheaper brownout rungs. No measurement fits
//! them; `BENCH_serving.json`'s `measured` block times the pinned f64
//! serve at a few hundred ns for a batch-1 call. Background
//! recalibration, canary and probe traffic occupy a replica the way a
//! batch does. A
//! [`SimConfig`] is a plain worker pool; a [`ResilientConfig`] adds a
//! dispatch watchdog feeding per-replica circuit breakers, hedged
//! re-dispatch, the brownout tier ladder and mandatory deadlines. Both run
//! through [`run`] and return one [`ServingReport`]: per-tenant
//! p50/p99/p999 latency, throughput, shed and expiry counts, queue
//! high-water marks, and per-replica breaker and tier state.
//!
//! Two invariants make the numbers trustworthy:
//!
//! * **Bitwise replay.** All timing is virtual (the crate never reads a
//!   wall clock — CI grep-gates clock reads), every random decision
//!   derives from the config's root seed via independent per-stream RNGs,
//!   and event ties break on scheduling order. Same config ⇒
//!   byte-identical report, regardless of host or `PHOTON_THREADS`.
//! * **Chip reconciliation.** [`run_on_chip`] executes every completed
//!   dispatch on a real [`photon_photonics::FabricatedChip`] through the
//!   pinned f64 serving path, whatever brownout tier it was charged at;
//!   the chip's query counter must equal the report's
//!   `eval_queries + hedge_queries` exactly.
//!
//! ```
//! use photon_sim::{run, ArrivalProcess, SimConfig, TenantLoad};
//! use photon_farm::CoalescePolicy;
//!
//! let cfg = SimConfig::new(7, 10_000_000) // 10 virtual ms
//!     .with_tenant(TenantLoad::new(
//!         "alice",
//!         ArrivalProcess::Poisson { rate_hz: 50_000.0 },
//!     ))
//!     .with_coalescer(CoalescePolicy::new(16, 100_000));
//! let report = run(&cfg);
//! assert_eq!(report.to_json(), run(&cfg).to_json()); // bitwise replay
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod arrivals;
mod cost;
mod heap;
mod report;
mod sim;

pub use arrivals::{ArrivalGen, ArrivalProcess};
pub use cost::{CostModel, TierCostModel};
pub use heap::EventHeap;
pub use report::{ReplicaStats, ResilienceReport, ServingReport, TenantServingStats};
/// [`run`] under its earlier replica-group name, kept for the `perfbench`
/// harness.
pub use sim::run as run_resilient;
/// [`run_on_chip`] under its earlier replica-group name, kept for the
/// `perfbench` harness.
pub use sim::run_on_chip as run_resilient_on_chip;
pub use sim::{
    run, run_on_chip, CanaryTraffic, Config, Group, Pool, Preset, ProbeTraffic, RecalTraffic,
    ReplicaSpec, ResilientConfig, SimConfig, TenantLoad,
};
