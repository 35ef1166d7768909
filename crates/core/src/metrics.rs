//! Evaluation metrics: batch losses and accuracy.

use photon_data::Dataset;
use photon_exec::{tree_reduce, tree_sum, ExecPool};
use photon_linalg::{CVector, RVector};
use photon_photonics::{BatchScratch, Network, NetworkScratch, OnnChip};

use crate::loss::ClassificationHead;

/// Number of samples per batched chip evaluation block.
///
/// A *fixed* constant (never derived from the pool size): the work items
/// handed to the pool are always the same blocks in the same order, and
/// each sample's compiled-GEMM output is bitwise-independent of which block
/// or thread computed it — together that keeps every pooled reduction
/// bitwise pool-size-invariant.
const BATCH_BLOCK: usize = 32;

/// The index blocks batched chip evaluation fans out over.
fn batch_blocks(indices: &[usize]) -> Vec<&[usize]> {
    indices.chunks(BATCH_BLOCK).collect()
}

/// Mean chip loss over the samples at `indices` (each sample = one chip
/// query), evaluated on `pool`.
///
/// Samples are evaluated in fixed 32-sample blocks (`BATCH_BLOCK`) through
/// [`OnnChip::forward_batch_into`], so compiled chips amortize one unitary
/// compile across a whole block instead of re-walking the op list per
/// sample. Per-sample losses are flattened back into index order and
/// combined along a fixed-shape reduction tree, so a noise-free chip yields
/// a bitwise-identical mean for every pool size. Every worker reuses one
/// [`BatchScratch`], so the steady-state forward path performs no per-sample
/// heap allocation.
///
/// # Panics
///
/// Panics when `indices` is empty or out of range.
pub fn chip_batch_loss<C: OnnChip>(
    chip: &C,
    data: &Dataset,
    indices: &[usize],
    head: &ClassificationHead,
    theta: &RVector,
    pool: &ExecPool,
) -> f64 {
    assert!(!indices.is_empty(), "batch must be non-empty");
    let blocks = batch_blocks(indices);
    let per_block = pool.map_with(&blocks, BatchScratch::new, |scratch, _, block| {
        let xs: Vec<&CVector> = block.iter().map(|&i| data.sample(i).0).collect();
        let ys = chip.forward_batch_into(&xs, theta, scratch);
        ys.iter()
            .zip(block.iter())
            .map(|(y, &i)| head.loss(y, data.sample(i).1))
            .collect::<Vec<f64>>()
    });
    let losses: Vec<f64> = per_block.into_iter().flatten().collect();
    tree_sum(&losses) / indices.len() as f64
}

/// Mean model loss over the samples at `indices` (no chip queries).
///
/// # Panics
///
/// Panics when `indices` is empty or out of range.
pub fn model_batch_loss(
    model: &Network,
    data: &Dataset,
    indices: &[usize],
    head: &ClassificationHead,
    theta: &RVector,
) -> f64 {
    assert!(!indices.is_empty(), "batch must be non-empty");
    let mut scratch = NetworkScratch::new();
    let mut acc = 0.0;
    for &i in indices {
        let (x, label) = data.sample(i);
        let y = model.forward_into(x, theta, &mut scratch);
        acc += head.loss(y, label);
    }
    acc / indices.len() as f64
}

/// Mean backprop loss and gradient over a batch, with the per-sample
/// forward/backward passes fanned out across `pool`. The op gates at
/// `theta` are evaluated once and shared by every sample; each worker
/// reuses one tape.
///
/// Losses and per-sample gradients are combined along fixed-shape reduction
/// trees, so the result is bitwise identical for every pool size.
///
/// # Panics
///
/// Panics when `indices` is empty or out of range.
pub fn model_batch_loss_and_grad(
    model: &Network,
    data: &Dataset,
    indices: &[usize],
    head: &ClassificationHead,
    theta: &RVector,
    pool: &ExecPool,
) -> (f64, RVector) {
    assert!(!indices.is_empty(), "batch must be non-empty");
    let plan = model.gate_plan(theta);
    let per_sample = pool.map_with(
        indices,
        || (NetworkScratch::new(), model.new_tape(), CVector::zeros(0)),
        |(scratch, tape, y), _, &i| {
            let (x, label) = data.sample(i);
            model.forward_tape_into(x, theta, &plan, scratch, y, tape);
            let (loss, mut gy) = head.loss_and_grad(y, label);
            let mut grad = RVector::zeros(model.param_count());
            model.vjp_into(&plan, tape, theta, &mut gy, grad.as_mut_slice());
            (loss, grad)
        },
    );
    let scale = 1.0 / indices.len() as f64;
    let losses: Vec<f64> = per_sample.iter().map(|(l, _)| *l).collect();
    let grads: Vec<RVector> = per_sample.into_iter().map(|(_, g)| g).collect();
    let grad = tree_reduce(grads, &|mut a: RVector, b: RVector| {
        a += &b;
        a
    })
    .expect("batch is non-empty");
    (tree_sum(&losses) * scale, grad.scale(scale))
}

/// Accuracy and mean loss of the chip over a whole dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Fraction of correctly classified samples.
    pub accuracy: f64,
    /// Mean cross-entropy loss.
    pub loss: f64,
    /// Samples evaluated.
    pub samples: usize,
}

/// Evaluates the chip on every sample of `data` using `pool` (costs
/// `data.len()` chip queries).
///
/// Samples run in fixed 32-sample blocks (`BATCH_BLOCK`) through
/// [`OnnChip::forward_batch_into`] (one compile + one GEMM per block on
/// compiled chips). Losses are flattened back into index order and combined
/// along a fixed-shape reduction tree, so a noise-free chip yields a
/// bitwise-identical evaluation for every pool size.
///
/// # Panics
///
/// Panics on an empty dataset.
pub fn evaluate_chip<C: OnnChip>(
    chip: &C,
    data: &Dataset,
    head: &ClassificationHead,
    theta: &RVector,
    pool: &ExecPool,
) -> Evaluation {
    assert!(!data.is_empty(), "cannot evaluate on an empty dataset");
    let indices: Vec<usize> = (0..data.len()).collect();
    let blocks = batch_blocks(&indices);
    let per_block = pool.map_with(&blocks, BatchScratch::new, |scratch, _, block| {
        let xs: Vec<&CVector> = block.iter().map(|&i| data.sample(i).0).collect();
        let ys = chip.forward_batch_into(&xs, theta, scratch);
        ys.iter()
            .zip(block.iter())
            .map(|(y, &i)| {
                let label = data.sample(i).1;
                (head.predict(y) == label, head.loss(y, label))
            })
            .collect::<Vec<(bool, f64)>>()
    });
    let per_sample: Vec<(bool, f64)> = per_block.into_iter().flatten().collect();
    let correct = per_sample.iter().filter(|(hit, _)| *hit).count();
    let losses: Vec<f64> = per_sample.iter().map(|(_, l)| *l).collect();
    Evaluation {
        accuracy: correct as f64 / data.len() as f64,
        loss: tree_sum(&losses) / data.len() as f64,
        samples: data.len(),
    }
}

/// Helper: the feature vectors of the samples at `indices` (the Fisher
/// inputs of the LCNG metric).
pub fn batch_inputs(data: &Dataset, indices: &[usize]) -> Vec<CVector> {
    indices.iter().map(|&i| data.sample(i).0.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::ClassificationHead;
    use photon_data::GaussianClusters;
    use photon_photonics::{Architecture, ErrorModel, FabricatedChip};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (FabricatedChip, Dataset, ClassificationHead, RVector) {
        let mut rng = StdRng::seed_from_u64(3);
        let arch = Architecture::single_mesh(4, 4).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        let data = GaussianClusters::new(4, 4, 0.1)
            .generate(20, &mut rng)
            .unwrap();
        let head = ClassificationHead::new(4, 4, 10.0).unwrap();
        let theta = chip.init_params(&mut rng);
        (chip, data, head, theta)
    }

    #[test]
    fn chip_and_oracle_losses_agree() {
        let (chip, data, head, theta) = setup();
        let idx: Vec<usize> = (0..10).collect();
        let l_chip = chip_batch_loss(&chip, &data, &idx, &head, &theta, &ExecPool::serial());
        let l_model = model_batch_loss(&chip.oracle_network(), &data, &idx, &head, &theta);
        assert!((l_chip - l_model).abs() < 1e-12);
    }

    #[test]
    fn backprop_gradient_matches_finite_difference() {
        let (chip, data, head, theta) = setup();
        let model = chip.oracle_network();
        let idx = [0usize, 3, 7];
        let (_, grad) =
            model_batch_loss_and_grad(&model, &data, &idx, &head, &theta, &ExecPool::serial());
        let eps = 1e-6;
        for k in [0usize, 5, theta.len() - 1] {
            let mut tp = theta.clone();
            tp[k] += eps;
            let mut tm = theta.clone();
            tm[k] -= eps;
            let fd = (model_batch_loss(&model, &data, &idx, &head, &tp)
                - model_batch_loss(&model, &data, &idx, &head, &tm))
                / (2.0 * eps);
            assert!(
                (fd - grad[k]).abs() < 1e-5,
                "param {k}: {fd} vs {}",
                grad[k]
            );
        }
    }

    #[test]
    fn evaluation_counts() {
        let (chip, data, head, theta) = setup();
        let ev = evaluate_chip(&chip, &data, &head, &theta, &ExecPool::serial());
        assert_eq!(ev.samples, 20);
        assert!((0.0..=1.0).contains(&ev.accuracy));
        assert!(ev.loss.is_finite() && ev.loss > 0.0);
    }

    #[test]
    fn batch_inputs_extracts_features() {
        let (_, data, _, _) = setup();
        let inputs = batch_inputs(&data, &[1, 4]);
        assert_eq!(inputs.len(), 2);
        assert_eq!(inputs[0], data.sample(1).0.clone());
    }

    #[test]
    fn parallel_and_serial_losses_agree_bitwise() {
        // The serial pool and every parallel pool must produce the same
        // bits: index-ordered evaluation + fixed-shape reduction tree.
        let mut rng = StdRng::seed_from_u64(77);
        let arch = Architecture::single_mesh(4, 2).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        let data = GaussianClusters::new(4, 4, 0.1)
            .generate(256, &mut rng)
            .unwrap();
        let head = ClassificationHead::new(4, 4, 10.0).unwrap();
        let theta = chip.init_params(&mut rng);
        let idx: Vec<usize> = (0..256).collect();

        let serial = chip_batch_loss(&chip, &data, &idx, &head, &theta, &ExecPool::serial());
        for threads in [2usize, 4, 8] {
            let parallel =
                chip_batch_loss(&chip, &data, &idx, &head, &theta, &ExecPool::new(threads));
            assert_eq!(
                serial.to_bits(),
                parallel.to_bits(),
                "pool({threads}) must match serial bitwise"
            );
        }
        // Query counter includes every pooled forward: serial + 3 pools.
        assert_eq!(chip.query_count(), 4 * 256);

        // The pooled evaluation sweep is thread-count-invariant too.
        let ev_serial = evaluate_chip(&chip, &data, &head, &theta, &ExecPool::serial());
        let ev_parallel = evaluate_chip(&chip, &data, &head, &theta, &ExecPool::new(4));
        assert_eq!(ev_serial.loss.to_bits(), ev_parallel.loss.to_bits());
        assert_eq!(ev_serial.accuracy, ev_parallel.accuracy);
    }
}
