//! Synthetic FashionMNIST substitute: ten texture/shape classes with
//! geometric jitter and pixel noise.
//!
//! FashionMNIST is harder than MNIST because classes share coarse structure;
//! this generator mirrors that by making several classes near neighbours
//! (stripes at different orientations, filled vs hollow shapes), so the
//! accuracy gap between the two tasks has the same sign as in the paper.

use rand::Rng;

use photon_linalg::random::standard_normal;

use crate::image::Image;

/// Configuration of the synthetic fashion-texture generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticFashion {
    /// Image side length (28, like FashionMNIST).
    pub side: usize,
    /// Std-dev of the random translation, in pixels.
    pub jitter: f64,
    /// Std-dev of additive Gaussian pixel noise.
    pub noise: f64,
}

impl SyntheticFashion {
    /// FashionMNIST-shaped defaults.
    pub fn new() -> Self {
        SyntheticFashion {
            side: 28,
            jitter: 1.2,
            noise: 0.12,
        }
    }

    /// Renders one image of class `label` (0-9).
    ///
    /// Classes: 0 horizontal stripes, 1 vertical stripes, 2 diagonal
    /// stripes, 3 checkerboard, 4 filled disc, 5 ring, 6 filled square,
    /// 7 hollow square, 8 triangle, 9 cross.
    ///
    /// # Panics
    ///
    /// Panics when `label >= 10`.
    pub fn render<R: Rng + ?Sized>(&self, label: usize, rng: &mut R) -> Image {
        assert!(label < 10, "fashion class must be 0-9, got {label}");
        let mut img = Image::new(self.side, self.side);
        let s = self.side as f64;
        let cx = s / 2.0 + self.jitter * standard_normal(rng);
        let cy = s / 2.0 + self.jitter * standard_normal(rng);
        let intensity = 0.7 + 0.3 * rng.gen::<f64>();
        let phase = rng.gen::<f64>() * s / 4.0;

        match label {
            0..=2 => {
                // Stripes: horizontal / vertical / diagonal, period 4-6 px.
                let period = 4.0 + 2.0 * rng.gen::<f64>();
                for y in 0..self.side {
                    for x in 0..self.side {
                        let coord = match label {
                            0 => y as f64,
                            1 => x as f64,
                            _ => (x as f64 + y as f64) / std::f64::consts::SQRT_2,
                        };
                        let v = ((coord + phase) / period * std::f64::consts::TAU).sin();
                        if v > 0.2 {
                            img.set(x as i64, y as i64, intensity);
                        }
                    }
                }
            }
            3 => {
                let cell = 3.0 + 2.0 * rng.gen::<f64>();
                for y in 0..self.side {
                    for x in 0..self.side {
                        let qx = ((x as f64 + phase) / cell).floor() as i64;
                        let qy = ((y as f64 + phase) / cell).floor() as i64;
                        if (qx + qy) % 2 == 0 {
                            img.set(x as i64, y as i64, intensity);
                        }
                    }
                }
            }
            4 => {
                let r = 6.5 + 2.0 * rng.gen::<f64>();
                img.draw_circle((cx, cy), r, None, intensity);
            }
            5 => {
                let r = 7.0 + 2.0 * rng.gen::<f64>();
                img.draw_circle((cx, cy), r, Some(2.5), intensity);
            }
            6 => {
                let half = 6.0 + 2.0 * rng.gen::<f64>();
                img.draw_rect(
                    (cx - half, cy - half),
                    (cx + half, cy + half),
                    None,
                    intensity,
                );
            }
            7 => {
                let half = 7.0 + 2.0 * rng.gen::<f64>();
                img.draw_rect(
                    (cx - half, cy - half),
                    (cx + half, cy + half),
                    Some(2.0),
                    intensity,
                );
            }
            8 => {
                let half = 7.5 + 2.0 * rng.gen::<f64>();
                let top = (cx, cy - half);
                let left = (cx - half, cy + half * 0.8);
                let right = (cx + half, cy + half * 0.8);
                img.draw_line(top, left, 2.0, intensity);
                img.draw_line(top, right, 2.0, intensity);
                img.draw_line(left, right, 2.0, intensity);
            }
            _ => {
                let arm = 8.0 + 2.0 * rng.gen::<f64>();
                img.draw_line((cx - arm, cy), (cx + arm, cy), 2.5, intensity);
                img.draw_line((cx, cy - arm), (cx, cy + arm), 2.5, intensity);
            }
        }
        img.add_noise(self.noise, rng);
        img
    }

    /// Generates `n` labeled images with uniformly drawn classes.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<(Image, usize)> {
        (0..n)
            .map(|_| {
                let label = rng.gen_range(0..10);
                (self.render(label, rng), label)
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
        for label in 0..10 {
            for _ in 0..per_class {
                out.push((self.render(label, rng), label));
            }
        }
        out
    }
}

impl Default for SyntheticFashion {
    fn default() -> Self {
        SyntheticFashion::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn renders_all_classes_nonempty() {
        let gen = SyntheticFashion::new();
        let mut rng = StdRng::seed_from_u64(1);
        for c in 0..10 {
            let img = gen.render(c, &mut rng);
            let mean = img.pixels().iter().sum::<f64>() / img.pixels().len() as f64;
            assert!(mean > 0.02, "class {c} looks empty");
        }
    }

    #[test]
    #[should_panic(expected = "0-9")]
    fn rejects_class_10() {
        let gen = SyntheticFashion::new();
        let _ = gen.render(10, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn stripes_have_orientation() {
        let gen = SyntheticFashion {
            noise: 0.0,
            jitter: 0.0,
            ..SyntheticFashion::new()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let horiz = gen.render(0, &mut rng);
        // Horizontal stripes: whole rows share a value.
        let mut row_uniform = 0;
        for y in 0..28 {
            let first = horiz.get(0, y);
            if (0..28).all(|x| (horiz.get(x, y) - first).abs() < 1e-9) {
                row_uniform += 1;
            }
        }
        assert!(
            row_uniform > 20,
            "rows should be uniform, got {row_uniform}"
        );
    }

    #[test]
    fn disc_and_ring_differ_at_center() {
        let gen = SyntheticFashion {
            noise: 0.0,
            jitter: 0.0,
            ..SyntheticFashion::new()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let disc = gen.render(4, &mut rng);
        let ring = gen.render(5, &mut rng);
        assert!(disc.get(14, 14) > 0.0);
        assert_eq!(ring.get(14, 14), 0.0);
    }

    #[test]
    fn balanced_and_seeded() {
        let gen = SyntheticFashion::new();
        let data = gen.generate_balanced(2, &mut StdRng::seed_from_u64(4));
        assert_eq!(data.len(), 20);
        let a = gen.generate(4, &mut StdRng::seed_from_u64(5));
        let b = gen.generate(4, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }
}
