//! Property-based tests of the dataset substrate.

use proptest::prelude::*;
use rand::SeedableRng;

use photon_data::{
    dft, dft_features, idft, Batcher, Dataset, GaussianClusters, Image, SyntheticFashion,
    SyntheticMnist,
};
use photon_linalg::{CVector, C64};

fn arb_cvec(n: usize) -> impl Strategy<Value = CVector> {
    proptest::collection::vec((-1.0..1.0f64, -1.0..1.0f64), n)
        .prop_map(|v| CVector::from_vec(v.into_iter().map(|(re, im)| C64::new(re, im)).collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// DFT is linear: dft(αx + y) = α·dft(x) + dft(y), any length.
    #[test]
    fn dft_linearity(
        n in 2usize..50,
        alpha_re in -2.0..2.0f64,
        alpha_im in -2.0..2.0f64,
        seed in 0u64..500,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = photon_linalg::random::normal_cvector(n, &mut rng);
        let y = photon_linalg::random::normal_cvector(n, &mut rng);
        let alpha = C64::new(alpha_re, alpha_im);
        let lhs = dft(&(x.scale(alpha) + y.clone()));
        let rhs = dft(&x).scale(alpha) + dft(&y);
        prop_assert!((&lhs - &rhs).max_abs() < 1e-7 * (1.0 + alpha.abs()));
    }

    /// Time shift ↔ phase ramp: dft(shift(x))[k] = dft(x)[k]·e^{−2πjk s/N}.
    #[test]
    fn dft_shift_theorem(x in (4usize..24).prop_flat_map(arb_cvec), s in 1usize..4) {
        let n = x.len();
        prop_assume!(s < n);
        let shifted = CVector::from_fn(n, |i| x[(i + s) % n]);
        let fx = dft(&x);
        let fs = dft(&shifted);
        for k in 0..n {
            let ramp = C64::cis(std::f64::consts::TAU * (k * s) as f64 / n as f64);
            prop_assert!((fs[k] - fx[k] * ramp).abs() < 1e-7, "bin {k}");
        }
    }

    /// idft ∘ dft = id for all lengths (including non-powers of two).
    #[test]
    fn dft_inverse(x in (1usize..60).prop_flat_map(arb_cvec)) {
        let back = idft(&dft(&x));
        prop_assert!((&back - &x).max_abs() < 1e-8);
    }

    /// Feature extraction always yields unit-power vectors (or exactly
    /// zero for non-normalizable inputs) of the requested length.
    #[test]
    fn features_are_unit_power(seed in 0u64..500, k in 1usize..64, class in 0usize..10) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let img = SyntheticMnist::new().render(class, &mut rng);
        let x = dft_features(&img, k);
        prop_assert_eq!(x.len(), k);
        let p = x.norm_sqr();
        prop_assert!((p - 1.0).abs() < 1e-9 || p < 1e-9);
    }

    /// Split partitions: train + test sizes add up and indices never
    /// duplicate samples (checked via multiset of labels).
    #[test]
    fn split_partitions_exactly(seed in 0u64..500, frac in 0.1..0.9f64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ds = GaussianClusters::new(4, 3, 0.2).generate(30, &mut rng).unwrap();
        let (train, test) = ds.split(frac, &mut rng);
        prop_assert_eq!(train.len() + test.len(), ds.len());
        let mut all_counts = vec![0usize; 3];
        for &l in train.labels().iter().chain(test.labels()) {
            all_counts[l] += 1;
        }
        let mut counts = vec![0usize; 3];
        for &l in ds.labels() {
            counts[l] += 1;
        }
        prop_assert_eq!(all_counts, counts);
    }

    /// One epoch of the batcher is a permutation of 0..n in batches of at
    /// most the configured size.
    #[test]
    fn batcher_is_a_permutation(seed in 0u64..500, n in 1usize..60, bs in 1usize..12) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut batcher = Batcher::new(n, bs);
        let mut seen = vec![false; n];
        for batch in batcher.epoch(&mut rng) {
            prop_assert!(batch.len() <= bs);
            for i in batch {
                prop_assert!(!seen[i]);
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Both image generators always stay in [0,1] and render class labels
    /// 0-9 without panicking.
    #[test]
    fn generators_stay_in_range(seed in 0u64..500, class in 0usize..10) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m: Image = SyntheticMnist::new().render(class, &mut rng);
        let f: Image = SyntheticFashion::new().render(class, &mut rng);
        prop_assert!(m.pixels().iter().all(|&p| (0.0..=1.0).contains(&p)));
        prop_assert!(f.pixels().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    /// Dataset subset preserves the (input, label) pairing.
    #[test]
    fn subset_preserves_pairs(seed in 0u64..500) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ds = GaussianClusters::new(3, 3, 0.2).generate(12, &mut rng).unwrap();
        let sub = ds.subset(&[11, 0, 5]);
        prop_assert_eq!(sub.len(), 3);
        for (j, &orig) in [11usize, 0, 5].iter().enumerate() {
            let (x, l) = sub.sample(j);
            let (x0, l0) = ds.sample(orig);
            prop_assert_eq!(l, l0);
            prop_assert!((x - x0).max_abs() < 1e-15);
        }
    }
}

/// Deterministic regression: a Dataset built from generator output is valid.
#[test]
fn images_to_dataset_validates() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let images = SyntheticFashion::new().generate_balanced(2, &mut rng);
    let ds: Dataset = photon_data::images_to_dataset(&images, 12, 10).unwrap();
    assert!((0..10).all(|c| ds.labels().iter().filter(|&&l| l == c).count() == 2));
}
