//! # photon-zo
//!
//! A from-scratch Rust reproduction of *"Zeroth-Order Optimization of
//! Optical Neural Networks with Linear Combination Natural Gradient and
//! Calibrated Model"* (DAC 2024): training MZI-mesh optical neural networks
//! whose fabrication errors make backpropagation unreliable, by combining
//!
//! 1. **zeroth-order probing** of the physical chip (loss values only),
//! 2. a **linear combination natural gradient** update — the best step in
//!    the span of the probe directions under a Fisher-metric curvature
//!    model, and
//! 3. a **calibrated software model** whose per-component errors are fitted
//!    from chip measurements and which supplies that curvature.
//!
//! This crate is a facade: it re-exports the workspace layers.
//!
//! | layer | crate | contents |
//! |-------|-------|----------|
//! | [`linalg`] | `photon-linalg` | complex/real dense linear algebra |
//! | [`photonics`] | `photon-photonics` | MZI meshes, error model, chip, autodiff, Fisher |
//! | [`data`] | `photon-data` | synthetic datasets, DFT features |
//! | [`opt`] | `photon-opt` | ZO, LCNG, natural gradient, CMA-ES, tuning |
//! | [`calib`] | `photon-calib` | black-box chip calibration |
//! | [`core`] | `photon-core` | losses, trainer, experiments, statistics |
//! | [`exec`] | `photon-exec` | deterministic worker-pool evaluation |
//! | [`faults`] | `photon-faults` | seeded fault injection for chip robustness studies |
//! | [`trace`] | `photon-trace` | structured telemetry: trace sinks, typed events, query ledger |
//! | [`farm`] | `photon-farm` | fault-tolerant multi-tenant chip farm: scheduling, quarantine, admission |
//! | [`sim`] | `photon-sim` | deterministic discrete-event serving simulator: coalescing, replica groups, resilience |
//!
//! # Quickstart
//!
//! ```
//! use rand::SeedableRng;
//! use photon_zo::prelude::*;
//!
//! // A 4-port ONN task with fabrication errors, trained by the paper's
//! // ZO-LCNG with an oracle metric model (see examples/ for calibration).
//! let task = build_task(&TaskSpec::quick(4), 1)?;
//! let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head)
//!     .with_calibrated_model(task.chip.oracle_network());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(2);
//! let mut config = TrainConfig::quick(4);
//! config.epochs = 2;
//! let outcome = trainer.train(
//!     Method::Lcng { model: ModelChoice::Calibrated },
//!     &config,
//!     &mut rng,
//! )?;
//! assert!(outcome.final_eval.accuracy >= 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

/// Dense complex/real linear algebra (re-export of `photon-linalg`).
pub mod linalg {
    pub use photon_linalg::*;
}

/// The photonic circuit simulator (re-export of `photon-photonics`).
pub mod photonics {
    pub use photon_photonics::*;
}

/// Datasets and feature extraction (re-export of `photon-data`).
pub mod data {
    pub use photon_data::*;
}

/// Optimizers (re-export of `photon-opt`).
pub mod opt {
    pub use photon_opt::*;
}

/// Chip calibration (re-export of `photon-calib`).
pub mod calib {
    pub use photon_calib::*;
}

/// Training core and experiment harness (re-export of `photon-core`).
pub mod core {
    pub use photon_core::*;
}

/// Parallel evaluation engine (re-export of `photon-exec`).
pub mod exec {
    pub use photon_exec::*;
}

/// Seeded fault injection for chips (re-export of `photon-faults`).
pub mod faults {
    pub use photon_faults::*;
}

/// Structured telemetry (re-export of `photon-trace`).
pub mod trace {
    pub use photon_trace::*;
}

/// Fault-tolerant multi-tenant chip farm (re-export of `photon-farm`).
pub mod farm {
    pub use photon_farm::*;
}

/// Discrete-event serving simulator (re-export of `photon-sim`).
pub mod sim {
    pub use photon_sim::*;
}

/// The most common imports in one place.
pub mod prelude {
    pub use photon_calib::{calibrate, calibrate_traced, evaluate_model, CalibrationSettings};
    pub use photon_core::{
        build_task, recovery_report, run_method, trace_summary, ClassificationHead, DurableOptions,
        Method, ModelChoice, RecoveryPolicy, RunJournal, RunOutcome, TaskKind, TaskSpec,
        TrainConfig, Trainer, WatchdogPolicy,
    };
    pub use photon_data::{Dataset, GaussianClusters, SyntheticFashion, SyntheticMnist};
    pub use photon_exec::ExecPool;
    pub use photon_farm::{
        BreakerPolicy, BrownoutPolicy, ChaosPlan, ChipHealth, Farm, FarmConfig, FarmReport,
        HealthPolicy, HedgePolicy, JobSpec, RejectReason, TenantSpec, WorkerSpec,
    };
    pub use photon_faults::{
        DriftConfig, FaultPlan, FaultyChip, ReplicaChaos, StuckShifter, TransientConfig,
    };
    pub use photon_linalg::{CVector, RVector, C64};
    pub use photon_opt::{Adam, CmaEs, LcngSettings, Perturbation, ZoSettings};
    pub use photon_photonics::{
        ideal_model, Architecture, ErrorModel, FabricatedChip, MeshModule, Module, Network, OnnChip,
    };
    pub use photon_sim::{
        ArrivalProcess, CostModel, ReplicaSpec, ResilientConfig, ServingReport, SimConfig,
        TenantLoad,
    };
    pub use photon_trace::{
        JsonlSink, MemorySink, NullSink, QueryCategory, TeeSink, TraceEvent, TraceHandle,
    };
}
