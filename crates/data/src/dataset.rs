//! Labeled complex-feature datasets and mini-batch iteration.

use rand::seq::SliceRandom;
use rand::Rng;

use photon_linalg::CVector;

/// A labeled dataset of complex feature vectors — the ONN's input currency.
///
/// # Examples
///
/// ```
/// use photon_linalg::CVector;
/// use photon_data::Dataset;
///
/// let ds = Dataset::new(
///     vec![CVector::basis(4, 0), CVector::basis(4, 1)],
///     vec![0, 1],
///     2,
/// )?;
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.input_dim(), 4);
/// # Ok::<(), photon_data::DataError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    inputs: Vec<CVector>,
    labels: Vec<usize>,
    num_classes: usize,
}

/// Errors raised while assembling datasets.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DataError {
    /// Inputs and labels have different lengths.
    LengthMismatch {
        /// Number of input vectors.
        inputs: usize,
        /// Number of labels.
        labels: usize,
    },
    /// A label is `>= num_classes`.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// Declared class count.
        num_classes: usize,
    },
    /// Input vectors have inconsistent dimensions.
    InconsistentDims,
    /// The dataset is empty where a non-empty one is required.
    Empty,
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::LengthMismatch { inputs, labels } => {
                write!(f, "{inputs} inputs but {labels} labels")
            }
            DataError::LabelOutOfRange { label, num_classes } => {
                write!(f, "label {label} out of range for {num_classes} classes")
            }
            DataError::InconsistentDims => write!(f, "input vectors have inconsistent dimensions"),
            DataError::Empty => write!(f, "dataset is empty"),
        }
    }
}

impl std::error::Error for DataError {}

impl Dataset {
    /// Validates and wraps inputs and labels.
    ///
    /// # Errors
    ///
    /// See [`DataError`] variants.
    pub fn new(
        inputs: Vec<CVector>,
        labels: Vec<usize>,
        num_classes: usize,
    ) -> Result<Self, DataError> {
        if inputs.len() != labels.len() {
            return Err(DataError::LengthMismatch {
                inputs: inputs.len(),
                labels: labels.len(),
            });
        }
        if inputs.is_empty() {
            return Err(DataError::Empty);
        }
        let dim = inputs[0].len();
        if inputs.iter().any(|x| x.len() != dim) {
            return Err(DataError::InconsistentDims);
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= num_classes) {
            return Err(DataError::LabelOutOfRange {
                label: bad,
                num_classes,
            });
        }
        Ok(Dataset {
            inputs,
            labels,
            num_classes,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Returns `true` when the dataset has no samples (never constructible
    /// via [`Dataset::new`], but `split` edges can produce it).
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Feature dimension.
    pub fn input_dim(&self) -> usize {
        self.inputs[0].len()
    }

    /// Declared number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Input vectors in order.
    pub fn inputs(&self) -> &[CVector] {
        &self.inputs
    }

    /// Labels in order.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The `(input, label)` pair at `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.len()`.
    pub fn sample(&self, index: usize) -> (&CVector, usize) {
        (&self.inputs[index], self.labels[index])
    }

    /// Extracts the samples at `indices` as a new dataset.
    ///
    /// # Panics
    ///
    /// Panics when any index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            inputs: indices.iter().map(|&i| self.inputs[i].clone()).collect(),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            num_classes: self.num_classes,
        }
    }

    /// Randomly splits into `(train, test)` with `train_fraction` of the
    /// samples in the first part.
    ///
    /// # Panics
    ///
    /// Panics when `train_fraction` is outside `[0, 1]`.
    pub fn split<R: Rng + ?Sized>(&self, train_fraction: f64, rng: &mut R) -> (Dataset, Dataset) {
        assert!(
            (0.0..=1.0).contains(&train_fraction),
            "train_fraction must be in [0, 1]"
        );
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        let n_train = (self.len() as f64 * train_fraction).round() as usize;
        let (train_idx, test_idx) = idx.split_at(n_train.min(self.len()));
        (self.subset(train_idx), self.subset(test_idx))
    }
}

/// Epoch-wise mini-batch index iterator with reshuffling.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use photon_data::Batcher;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut batcher = Batcher::new(10, 4);
/// let batches: Vec<_> = batcher.epoch(&mut rng).collect();
/// assert_eq!(batches.len(), 3); // 4 + 4 + 2
/// let total: usize = batches.iter().map(Vec::len).sum();
/// assert_eq!(total, 10);
/// ```
#[derive(Debug, Clone)]
pub struct Batcher {
    n: usize,
    batch_size: usize,
}

impl Batcher {
    /// Creates a batcher over `n` samples with the given batch size.
    ///
    /// # Panics
    ///
    /// Panics when `batch_size == 0` or `n == 0`.
    pub fn new(n: usize, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(n > 0, "cannot batch an empty dataset");
        Batcher { n, batch_size }
    }

    /// Shuffles sample indices and returns an iterator over one epoch of
    /// mini-batches (the final batch may be short).
    pub fn epoch<R: Rng + ?Sized>(&mut self, rng: &mut R) -> impl Iterator<Item = Vec<usize>> {
        let mut idx: Vec<usize> = (0..self.n).collect();
        idx.shuffle(rng);
        let bs = self.batch_size;
        (0..self.n.div_ceil(bs)).map(move |b| idx[b * bs..((b + 1) * bs).min(idx.len())].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy(n: usize, dim: usize) -> Dataset {
        let inputs = (0..n).map(|i| CVector::basis(dim, i % dim)).collect();
        let labels = (0..n).map(|i| i % 3).collect();
        Dataset::new(inputs, labels, 3).unwrap()
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            Dataset::new(vec![CVector::zeros(2)], vec![], 1),
            Err(DataError::LengthMismatch { .. })
        ));
        assert!(matches!(
            Dataset::new(vec![], vec![], 1),
            Err(DataError::Empty)
        ));
        assert!(matches!(
            Dataset::new(vec![CVector::zeros(2), CVector::zeros(3)], vec![0, 0], 1),
            Err(DataError::InconsistentDims)
        ));
        assert!(matches!(
            Dataset::new(vec![CVector::zeros(2)], vec![5], 3),
            Err(DataError::LabelOutOfRange { label: 5, .. })
        ));
    }

    #[test]
    fn accessors() {
        let ds = toy(9, 4);
        assert_eq!(ds.len(), 9);
        assert_eq!(ds.input_dim(), 4);
        assert_eq!(ds.num_classes(), 3);
        let (x, l) = ds.sample(4);
        assert_eq!(l, 1);
        assert_eq!(x.len(), 4);
        assert!((0..3).all(|c| ds.labels().iter().filter(|&&l| l == c).count() == 3));
    }

    #[test]
    fn split_partitions() {
        let ds = toy(10, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let (train, test) = ds.split(0.7, &mut rng);
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
        // Degenerate splits.
        let (all, none) = ds.split(1.0, &mut rng);
        assert_eq!(all.len(), 10);
        assert!(none.is_empty());
    }

    #[test]
    fn subset_picks_rows() {
        let ds = toy(6, 3);
        let sub = ds.subset(&[5, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.labels(), &[2, 0]);
    }

    #[test]
    fn batcher_covers_every_index_once() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut batcher = Batcher::new(13, 5);
        let mut seen = [false; 13];
        for batch in batcher.epoch(&mut rng) {
            for i in batch {
                assert!(!seen[i], "index {i} repeated");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn batcher_shuffles_between_epochs() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut batcher = Batcher::new(32, 8);
        let e1: Vec<Vec<usize>> = batcher.epoch(&mut rng).collect();
        let e2: Vec<Vec<usize>> = batcher.epoch(&mut rng).collect();
        assert_ne!(e1, e2);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_panics() {
        let _ = Batcher::new(4, 0);
    }
}
