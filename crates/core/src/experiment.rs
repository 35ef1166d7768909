//! Experiment harness: reproducible task construction and repeated-seed
//! comparison runs — the machinery every table/figure binary builds on.

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_calib::{calibrate_traced, CalibrationSettings};
use photon_data::{images_to_dataset, Dataset, GaussianClusters, SyntheticFashion, SyntheticMnist};
use photon_photonics::{Architecture, ErrorModel, FabricatedChip};

use crate::journal::stream_seed;
use crate::loss::{ClassificationHead, CoreError};
use crate::stats::RunSummary;
use crate::trainer::{Method, TrainConfig, TrainOutcome, Trainer};

/// The workload family of an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Synthetic MNIST substitute (seven-segment digits → DFT features).
    MnistLike,
    /// Synthetic FashionMNIST substitute (textures/shapes → DFT features).
    FashionLike,
    /// Gaussian clusters directly in feature space (fast smoke workload).
    Clusters,
}

impl TaskKind {
    /// Label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            TaskKind::MnistLike => "MNIST-like",
            TaskKind::FashionLike => "Fashion-like",
            TaskKind::Clusters => "Clusters",
        }
    }
}

/// A fully specified, seed-reproducible experimental task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpec {
    /// Workload family.
    pub kind: TaskKind,
    /// Feature dimension `K` (ONN width).
    pub k: usize,
    /// Clements mesh layer count `L` (`L = K` is the full mesh).
    pub l: usize,
    /// Training samples.
    pub train_size: usize,
    /// Test samples.
    pub test_size: usize,
    /// Fabrication-error magnitude `β`.
    pub beta: f64,
    /// Detector gain of the classification head.
    pub gain: f64,
}

impl TaskSpec {
    /// The default image-classification task at width `k` with a full mesh.
    ///
    /// # Panics
    ///
    /// Panics when `k < 10`: the 10-class power readout needs at least ten
    /// output ports.
    pub fn image(kind: TaskKind, k: usize) -> Self {
        assert!(k >= 10, "image tasks need k >= 10 for the 10-class readout");
        TaskSpec {
            kind,
            k,
            l: k,
            train_size: 400,
            test_size: 200,
            beta: 1.0,
            gain: 10.0,
        }
    }

    /// A small fast task for tests and examples.
    pub fn quick(k: usize) -> Self {
        TaskSpec {
            kind: TaskKind::Clusters,
            k,
            l: k,
            train_size: 96,
            test_size: 48,
            beta: 1.0,
            gain: 10.0,
        }
    }

    /// Number of classes of the workload.
    pub fn num_classes(&self) -> usize {
        match self.kind {
            TaskKind::MnistLike | TaskKind::FashionLike => 10,
            TaskKind::Clusters => self.k.min(4),
        }
    }

    /// The ONN architecture of this task: the two-mesh classifier for image
    /// workloads, a single mesh for the cluster workload.
    ///
    /// # Errors
    ///
    /// Propagates architecture validation failures (requires `k ≥ 2`).
    pub fn architecture(&self) -> Result<Architecture, photon_photonics::NetworkError> {
        match self.kind {
            TaskKind::MnistLike | TaskKind::FashionLike => {
                Architecture::two_mesh_classifier(self.k, self.l)
            }
            TaskKind::Clusters => Architecture::single_mesh(self.k, self.l),
        }
    }
}

/// Everything a training run needs, constructed reproducibly from a seed.
#[derive(Debug)]
pub struct TaskInstance {
    /// The fabricated (noisy, black-box) chip.
    pub chip: FabricatedChip,
    /// Training split.
    pub train: Dataset,
    /// Test split.
    pub test: Dataset,
    /// Readout head.
    pub head: ClassificationHead,
}

/// Builds a [`TaskInstance`] from a spec and seed. The same `(spec, seed)`
/// pair always produces the identical chip and data.
///
/// # Errors
///
/// Propagates dataset/architecture/head construction failures.
pub fn build_task(spec: &TaskSpec, seed: u64) -> Result<TaskInstance, CoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let arch = spec
        .architecture()
        .map_err(|e| CoreError::InvalidConfig(format!("architecture: {e}")))?;
    let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(spec.beta), &mut rng);

    let num_classes = spec.num_classes();
    let total = spec.train_size + spec.test_size;
    let data = match spec.kind {
        TaskKind::MnistLike => {
            let images = SyntheticMnist::new().generate(total, &mut rng);
            images_to_dataset(&images, spec.k, 10)
                .map_err(|e| CoreError::InvalidConfig(format!("dataset: {e}")))?
        }
        TaskKind::FashionLike => {
            let images = SyntheticFashion::new().generate(total, &mut rng);
            images_to_dataset(&images, spec.k, 10)
                .map_err(|e| CoreError::InvalidConfig(format!("dataset: {e}")))?
        }
        TaskKind::Clusters => GaussianClusters::new(spec.k, num_classes, 0.15)
            .generate(total, &mut rng)
            .map_err(|e| CoreError::InvalidConfig(format!("dataset: {e}")))?,
    };
    let train_frac = spec.train_size as f64 / total as f64;
    let (train, test) = data.split(train_frac, &mut rng);
    let head = ClassificationHead::new(spec.k, num_classes, spec.gain)?;
    Ok(TaskInstance {
        chip,
        train,
        test,
        head,
    })
}

/// Stream tag of a run's pre-training calibration sweep ("CALI").
const CALIBRATION_STREAM: u64 = 0x4341_4C49;

/// The aggregate of repeated runs of one method on one task.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method label.
    pub method: String,
    /// Final test accuracies over runs.
    pub accuracy: RunSummary,
    /// Final training losses over runs.
    pub train_loss: RunSummary,
    /// Final test losses over runs.
    pub test_loss: RunSummary,
    /// Mean training chip queries per run.
    pub mean_queries: f64,
    /// The per-run outcomes (histories included).
    pub outcomes: Vec<TrainOutcome>,
}

/// Runs `method` for `runs` independent seeds (fresh chip, data and
/// initialization per seed) and aggregates the results.
///
/// When `calibration` is provided, each run first calibrates its chip with
/// the given settings and attaches the calibrated model. The calibration
/// sweep draws from a stream of its own ([`stream_seed`]), so run `r` of
/// every method trains from the same warm start with the same batch orders.
///
/// # Errors
///
/// Propagates task-construction and training failures.
pub fn run_method(
    spec: &TaskSpec,
    method: Method,
    config: &TrainConfig,
    runs: usize,
    base_seed: u64,
    calibration: Option<&CalibrationSettings>,
) -> Result<MethodResult, CoreError> {
    assert!(runs > 0, "need at least one run");
    let mut accs = Vec::with_capacity(runs);
    let mut train_losses = Vec::with_capacity(runs);
    let mut test_losses = Vec::with_capacity(runs);
    let mut queries = Vec::with_capacity(runs);
    let mut outcomes = Vec::with_capacity(runs);

    for r in 0..runs {
        let seed = base_seed.wrapping_add(r as u64).wrapping_mul(0x9e3779b9);
        let task = build_task(spec, seed)?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcdef);

        let mut trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head);
        if let Some(cal_settings) = calibration {
            // Pre-run calibration goes through the traced entry point so a
            // traced experiment ledgers its epoch-0 spend; with a null sink
            // this is identical to plain `calibrate`.
            let mut calib_rng = StdRng::seed_from_u64(stream_seed(seed, CALIBRATION_STREAM, 0));
            let outcome = calibrate_traced(&task.chip, cal_settings, &mut calib_rng, &config.trace)
                .map_err(|e| CoreError::InvalidConfig(format!("calibration: {e}")))?;
            trainer = trainer.with_calibrated_model(outcome.model);
        }

        let outcome = trainer.train(method, config, &mut rng)?;
        accs.push(outcome.final_eval.accuracy);
        test_losses.push(outcome.final_eval.loss);
        train_losses.push(
            outcome
                .history
                .last()
                .map(|h| h.train_loss)
                .unwrap_or(f64::NAN),
        );
        queries.push(outcome.training_queries as f64);
        outcomes.push(outcome);
    }

    Ok(MethodResult {
        method: method.label(),
        accuracy: RunSummary::from_values(&accs),
        train_loss: RunSummary::from_values(&train_losses),
        test_loss: RunSummary::from_values(&test_losses),
        mean_queries: queries.iter().sum::<f64>() / runs as f64,
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_building_is_reproducible() {
        let spec = TaskSpec::quick(4);
        let a = build_task(&spec, 7).unwrap();
        let b = build_task(&spec, 7).unwrap();
        assert_eq!(a.chip.oracle_errors(), b.chip.oracle_errors());
        assert_eq!(a.train.inputs()[0], b.train.inputs()[0]);
        assert_eq!(a.train.len(), spec.train_size);
        assert_eq!(a.test.len(), spec.test_size);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = TaskSpec::quick(4);
        let a = build_task(&spec, 1).unwrap();
        let b = build_task(&spec, 2).unwrap();
        assert_ne!(a.chip.oracle_errors(), b.chip.oracle_errors());
    }

    #[test]
    fn image_task_shapes() {
        let spec = TaskSpec {
            train_size: 30,
            test_size: 10,
            ..TaskSpec::image(TaskKind::MnistLike, 12)
        };
        let task = build_task(&spec, 3).unwrap();
        assert_eq!(task.train.input_dim(), 12);
        assert_eq!(task.train.num_classes(), 10);
        assert_eq!(task.chip.input_dim(), 12);
        // Two-mesh classifier for image tasks.
        assert_eq!(task.chip.architecture().specs().len(), 5);
    }

    #[test]
    fn run_method_aggregates() {
        let spec = TaskSpec::quick(4);
        let mut config = TrainConfig::quick(4);
        config.epochs = 2;
        config.warm_epochs = 2;
        let res = run_method(&spec, Method::ZoGaussian, &config, 2, 42, None).unwrap();
        assert_eq!(res.accuracy.values.len(), 2);
        assert_eq!(res.outcomes.len(), 2);
        assert!(res.mean_queries > 0.0);
        assert_eq!(res.method, "ZO-I");
    }

    #[test]
    fn labels() {
        assert_eq!(TaskKind::MnistLike.label(), "MNIST-like");
        assert_eq!(TaskKind::Clusters.label(), "Clusters");
        assert_eq!(TaskSpec::quick(6).num_classes(), 4);
        assert_eq!(TaskSpec::image(TaskKind::FashionLike, 16).num_classes(), 10);
    }
}
