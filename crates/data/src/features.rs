//! DFT feature extraction: the optical front-end of the classification
//! pipeline.
//!
//! Following the research line's protocol, a 28×28 image is flattened to a
//! 784-sample real signal, transformed with a 784-point DFT, and the bins
//! from the *second* lowest up to the `K+1` lowest (discarding the 0 Hz bin)
//! form the `K`-dimensional complex input vector of the ONN. Each feature
//! vector is normalized to unit optical power.
//!
//! The transform runs from a DFT plan (see the `fft` module): its chirp,
//! chirp-kernel spectrum and twiddle tables are computed once per plan,
//! and only bins `1..=K` of the output are finished. [`dft_features`]
//! builds a plan for one image; [`images_to_dataset`] builds one for all
//! its images. Either way a feature vector has the bits of bins `1..=K` of
//! the full [`dft`](crate::dft) of the image's signal, normalized.

use photon_linalg::{CVector, C64};

use crate::dataset::{DataError, Dataset};
use crate::fft::DftPlan;
use crate::image::Image;

/// Extracts the `K` complex DFT features of an image (bins `1..=K`,
/// discarding DC), normalized to unit power.
///
/// # Panics
///
/// Panics when `k` is zero or not smaller than the pixel count.
///
/// # Examples
///
/// ```
/// use photon_data::{dft_features, Image};
///
/// let mut img = Image::new(28, 28);
/// img.draw_rect((10.0, 10.0), (18.0, 18.0), None, 1.0);
/// let x = dft_features(&img, 16);
/// assert_eq!(x.len(), 16);
/// assert!((x.norm_sqr() - 1.0).abs() < 1e-10);
/// ```
pub fn dft_features(image: &Image, k: usize) -> CVector {
    let plan = DftPlan::new(image.pixels().len(), false);
    planned_features(&plan, image, k, &mut Vec::new())
}

/// [`dft_features`] from a forward plan of the image's pixel count.
fn planned_features(plan: &DftPlan, image: &Image, k: usize, work: &mut Vec<C64>) -> CVector {
    let n = image.pixels().len();
    assert!(k >= 1, "need at least one feature bin");
    assert!(k < n, "k must be smaller than the pixel count {n}");
    let raw = plan.real_bins(image.pixels(), 1..k + 1, work);
    // Unit-power normalization; all-black images map to the zero vector.
    match raw.normalized() {
        Ok(v) => v,
        Err(_) => raw,
    }
}

/// Converts labeled images to a feature [`Dataset`] with `k` DFT bins.
///
/// # Errors
///
/// Propagates [`DataError`] from dataset validation (e.g. an empty input
/// list).
///
/// # Panics
///
/// Panics when `k` is zero or not smaller than an image's pixel count.
pub fn images_to_dataset(
    images: &[(Image, usize)],
    k: usize,
    num_classes: usize,
) -> Result<Dataset, DataError> {
    let mut plan: Option<DftPlan> = None;
    let mut work = Vec::new();
    let inputs = images
        .iter()
        .map(|(img, _)| {
            let n = img.pixels().len();
            if plan.as_ref().is_some_and(|p| p.len() != n) {
                plan = None;
            }
            let plan = plan.get_or_insert_with(|| DftPlan::new(n, false));
            planned_features(plan, img, k, &mut work)
        })
        .collect();
    let labels = images.iter().map(|(_, l)| *l).collect();
    Dataset::new(inputs, labels, num_classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::dft;
    use crate::synthetic_mnist::SyntheticMnist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn feature_shape_and_norm() {
        let gen = SyntheticMnist::new();
        let mut rng = StdRng::seed_from_u64(1);
        let img = gen.render(3, &mut rng);
        for k in [4usize, 16, 64] {
            let x = dft_features(&img, k);
            assert_eq!(x.len(), k);
            assert!((x.norm_sqr() - 1.0).abs() < 1e-10, "k={k}");
        }
    }

    #[test]
    fn dc_bin_is_discarded() {
        // A uniform image has all its energy in DC; its AC features vanish
        // before normalization.
        let mut img = Image::new(8, 8);
        img.draw_rect((0.0, 0.0), (7.0, 7.0), None, 1.0);
        let signal = CVector::from_real_slice(img.pixels());
        let spectrum = dft(&signal);
        let ac = spectrum.subvector(1, 16);
        assert!(ac.max_abs() < 1e-8);
        // dft_features then returns the (un-normalizable) zero vector.
        let x = dft_features(&img, 16);
        assert!(x.max_abs() < 1e-8);
    }

    #[test]
    fn different_classes_have_different_features() {
        let gen = SyntheticMnist {
            noise: 0.0,
            ..SyntheticMnist::new()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let a = dft_features(&gen.render(0, &mut rng), 16);
        let b = dft_features(&gen.render(1, &mut rng), 16);
        assert!((&a - &b).max_abs() > 0.05);
    }

    #[test]
    fn images_to_dataset_roundtrip() {
        let gen = SyntheticMnist::new();
        let mut rng = StdRng::seed_from_u64(3);
        let images = gen.generate_balanced(2, &mut rng);
        let ds = images_to_dataset(&images, 8, 10).unwrap();
        assert_eq!(ds.len(), 20);
        assert_eq!(ds.input_dim(), 8);
        assert_eq!(ds.num_classes(), 10);
        assert!(images_to_dataset(&[], 8, 10).is_err());
    }

    #[test]
    fn images_of_several_sizes_get_their_own_plans() {
        // 8×8 takes the radix-2 plan, 28×28 and 5×5 Bluestein plans.
        let mut rng = StdRng::seed_from_u64(4);
        let mut images = SyntheticMnist::new().generate(2, &mut rng);
        for (w, h) in [(8, 8), (8, 8), (5, 5), (28, 28)] {
            let mut img = Image::new(w, h);
            img.draw_rect((1.0, 1.0), (3.0, 4.0), None, 0.7);
            images.push((img, 1));
        }
        let ds = images_to_dataset(&images, 6, 10).unwrap();
        let bits = |v: &CVector| -> Vec<u64> {
            v.iter()
                .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                .collect()
        };
        for (i, (img, _)) in images.iter().enumerate() {
            let want = bits(&dft_features(img, 6));
            assert_eq!(bits(ds.sample(i).0), want, "image {i}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one feature")]
    fn zero_k_panics() {
        let img = Image::new(4, 4);
        let _ = dft_features(&img, 0);
    }
}
