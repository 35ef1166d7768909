//! Gaussian cluster toy task: fast-converging smoke-test workload for the
//! optimizers and examples.

use rand::Rng;

use photon_linalg::random::{normal_cvector, random_unit_cvector};
use photon_linalg::CVector;

use crate::dataset::{DataError, Dataset};

/// Configuration of the complex Gaussian cluster task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianClusters {
    /// Feature dimension `K`.
    pub dim: usize,
    /// Number of classes (cluster centers).
    pub num_classes: usize,
    /// Cluster spread relative to the unit-norm centers (e.g. 0.2).
    pub spread: f64,
}

impl GaussianClusters {
    /// A `dim`-dimensional task with `num_classes` well-separated clusters.
    ///
    /// # Panics
    ///
    /// Panics when `dim == 0`, `num_classes == 0` or `spread < 0`.
    pub fn new(dim: usize, num_classes: usize, spread: f64) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(num_classes > 0, "need at least one class");
        assert!(spread >= 0.0, "spread must be non-negative");
        GaussianClusters {
            dim,
            num_classes,
            spread,
        }
    }

    /// Generates `n` labeled samples: unit-norm cluster centers drawn once
    /// from the seeded `rng`, then per-sample complex Gaussian spread.
    ///
    /// # Errors
    ///
    /// Propagates [`DataError`] (only possible for `n == 0`).
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Result<Dataset, DataError> {
        let centers: Vec<CVector> = (0..self.num_classes)
            .map(|_| random_unit_cvector(self.dim, rng))
            .collect();
        let mut inputs = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % self.num_classes;
            let noise = normal_cvector(self.dim, rng).scale_real(self.spread);
            let raw = &centers[label] + &noise;
            inputs.push(raw.normalized().unwrap_or(raw));
            labels.push(label);
        }
        Dataset::new(inputs, labels, self.num_classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generates_balanced_unit_norm_samples() {
        let task = GaussianClusters::new(8, 4, 0.1);
        let mut rng = StdRng::seed_from_u64(1);
        let ds = task.generate(40, &mut rng).unwrap();
        assert_eq!(ds.len(), 40);
        assert!((0..4).all(|c| ds.labels().iter().filter(|&&l| l == c).count() == 10));
        for x in ds.inputs() {
            assert!((x.norm() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn low_spread_clusters_are_separable() {
        let task = GaussianClusters::new(6, 3, 0.05);
        let mut rng = StdRng::seed_from_u64(2);
        let ds = task.generate(30, &mut rng).unwrap();
        // Same-class samples are closer than cross-class samples on average.
        let mut same = (0.0, 0usize);
        let mut cross = (0.0, 0usize);
        for i in 0..ds.len() {
            for j in i + 1..ds.len() {
                let d = (ds.inputs()[i].clone() - ds.inputs()[j].clone()).norm();
                if ds.labels()[i] == ds.labels()[j] {
                    same = (same.0 + d, same.1 + 1);
                } else {
                    cross = (cross.0 + d, cross.1 + 1);
                }
            }
        }
        let avg_same = same.0 / same.1 as f64;
        let avg_cross = cross.0 / cross.1 as f64;
        assert!(avg_same < 0.5 * avg_cross, "{avg_same} vs {avg_cross}");
    }

    #[test]
    fn empty_generation_is_error() {
        let task = GaussianClusters::new(4, 2, 0.2);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(task.generate(0, &mut rng).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn zero_classes_panics() {
        let _ = GaussianClusters::new(4, 0, 0.1);
    }
}
