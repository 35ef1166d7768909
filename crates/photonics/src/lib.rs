//! # photon-photonics
//!
//! A from-scratch simulator of MZI-based optical neural networks (ONNs) on
//! silicon photonics, with:
//!
//! - phase shifters carrying attenuation-phase errors `ζ` and beam splitters
//!   carrying splitting-angle errors `γ` ([`ErrorModel`], [`ErrorVector`]);
//! - one [`Module`] type over Clements meshes (full and truncated), Reck
//!   triangles, diagonal phase layers ([`MeshModule`]), the modReLU
//!   ([`ModRelu`]) and the electro-optic activation ([`ElectroOptic`]);
//! - end-to-end networks with packed parameters ([`Architecture`],
//!   [`Network`]) and exact forward/reverse differentiation in the Wirtinger
//!   convention (the reverse pass is the exact real-adjoint of the forward
//!   tangent pass);
//! - the black-box chip abstraction ([`FabricatedChip`]): hidden fabrication
//!   errors, query counting, oracle escape hatches for upper-bound baselines;
//! - compiled forward plans ([`CompiledNetwork`], [`BatchScratch`]): cached
//!   dense unitaries applied batch-wide as multi-RHS GEMMs through
//!   [`OnnChip::forward_batch_into`] / [`OnnChip::forward_powers_batch_into`];
//! - an NNUE-style fast serving path: pinned compile bases served by exact
//!   rank-1 incremental updates ([`PinnedBase`]);
//! - Fisher-information machinery ([`fisher_vector_products`],
//!   [`module_fisher_block`], [`output_covariance`]) used by the linear
//!   combination natural gradient optimizer.
//!
//! # Examples
//!
//! Fabricate a noisy chip, compare it with its ideal model:
//!
//! ```
//! use rand::SeedableRng;
//! use photon_linalg::CVector;
//! use photon_photonics::{ideal_model, Architecture, ErrorModel, FabricatedChip};
//!
//! let arch = Architecture::two_mesh_classifier(4, 4)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
//! let model = ideal_model(&arch);
//!
//! let theta = chip.init_params(&mut rng);
//! let x = CVector::basis(4, 0);
//! let gap = (&chip.forward(&x, &theta) - &model.forward(&x, &theta)).max_abs();
//! assert!(gap > 0.0); // fabrication variations are visible at the output
//! # Ok::<(), photon_photonics::NetworkError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chip;
mod compiled;
mod electrooptic;
mod error;
mod fisher;
pub mod gradcheck;
mod mesh;
mod modrelu;
mod module;
mod network;
mod ops;
mod panel;

pub use chip::{
    ideal_model, AbortFlag, BatchScratch, ChipScratch, FabricatedChip, MeasurementNoise, OnnChip,
};
pub use compiled::{
    CacheStats, CompiledNetwork, PinnedBase, FORCED_RECOMPILE_PERIOD, MAX_INCREMENTAL_PHASES,
    MULTI_PHASE_DELTA_LIMIT,
};
pub use electrooptic::ElectroOptic;
pub use error::{
    zeta_from_parts, ErrorCursor, ErrorModel, ErrorRmse, ErrorVector, ErrorVectorError,
};
pub use fisher::{
    anisotropy_ratio, covariance_eigenvalues, fisher_vector_products, module_fisher_block,
    module_jacobian, output_covariance,
};
pub use mesh::{MeshKind, MeshModule};
pub use modrelu::ModRelu;
pub use module::{Module, ModuleTape};
pub use network::{
    Architecture, GatePlan, ModuleSpec, Network, NetworkError, NetworkScratch, NetworkTape,
};
pub use ops::Op;
pub use panel::StatePanel;
