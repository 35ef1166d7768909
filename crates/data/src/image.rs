//! Grayscale images and simple rasterization primitives used by the
//! synthetic dataset generators.

use rand::Rng;

use photon_linalg::random::standard_normal;

/// A row-major grayscale image with pixel values in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use photon_data::Image;
///
/// let mut img = Image::new(28, 28);
/// img.set(3, 4, 1.0);
/// assert_eq!(img.get(3, 4), 1.0);
/// assert_eq!(img.pixels().len(), 784);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: usize,
    height: usize,
    pixels: Vec<f64>,
}

impl Image {
    /// Creates an all-black image.
    pub fn new(width: usize, height: usize) -> Self {
        Image {
            width,
            height,
            pixels: vec![0.0; width * height],
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Row-major pixel buffer.
    pub fn pixels(&self) -> &[f64] {
        &self.pixels
    }

    /// Pixel value at `(x, y)`; out-of-bounds reads return 0.
    pub fn get(&self, x: i64, y: i64) -> f64 {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            0.0
        } else {
            self.pixels[y as usize * self.width + x as usize]
        }
    }

    /// Sets the pixel at `(x, y)`, clamping the value to `[0, 1]`;
    /// out-of-bounds writes are ignored.
    pub fn set(&mut self, x: i64, y: i64, v: f64) {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            return;
        }
        self.pixels[y as usize * self.width + x as usize] = v.clamp(0.0, 1.0);
    }

    /// Brightens the pixel at `(x, y)` to at least `v`.
    pub fn stamp(&mut self, x: i64, y: i64, v: f64) {
        let cur = self.get(x, y);
        if v > cur {
            self.set(x, y, v);
        }
    }

    /// Draws a thick anti-alias-free line segment with the given intensity.
    pub fn draw_line(
        &mut self,
        (x0, y0): (f64, f64),
        (x1, y1): (f64, f64),
        thickness: f64,
        intensity: f64,
    ) {
        let steps = ((x1 - x0).hypot(y1 - y0).ceil() as usize * 2).max(2);
        let half = thickness / 2.0;
        let r = half.ceil() as i64;
        for s in 0..=steps {
            let t = s as f64 / steps as f64;
            let cx = x0 + t * (x1 - x0);
            let cy = y0 + t * (y1 - y0);
            for dy in -r..=r {
                for dx in -r..=r {
                    let px = cx.round() as i64 + dx;
                    let py = cy.round() as i64 + dy;
                    let d = ((px as f64 - cx).powi(2) + (py as f64 - cy).powi(2)).sqrt();
                    if d <= half {
                        self.stamp(px, py, intensity);
                    }
                }
            }
        }
    }

    /// Draws a circle (filled disc or ring of the given stroke width).
    pub fn draw_circle(
        &mut self,
        (cx, cy): (f64, f64),
        radius: f64,
        stroke: Option<f64>,
        intensity: f64,
    ) {
        let r = radius.ceil() as i64 + 1;
        for dy in -r..=r {
            for dx in -r..=r {
                let d = ((dx * dx + dy * dy) as f64).sqrt();
                let inside = match stroke {
                    None => d <= radius,
                    Some(w) => (d - radius).abs() <= w / 2.0,
                };
                if inside {
                    self.stamp(cx.round() as i64 + dx, cy.round() as i64 + dy, intensity);
                }
            }
        }
    }

    /// Draws an axis-aligned rectangle (filled or outlined).
    pub fn draw_rect(
        &mut self,
        (x0, y0): (f64, f64),
        (x1, y1): (f64, f64),
        stroke: Option<f64>,
        intensity: f64,
    ) {
        match stroke {
            None => {
                for y in y0.round() as i64..=y1.round() as i64 {
                    for x in x0.round() as i64..=x1.round() as i64 {
                        self.stamp(x, y, intensity);
                    }
                }
            }
            Some(w) => {
                self.draw_line((x0, y0), (x1, y0), w, intensity);
                self.draw_line((x1, y0), (x1, y1), w, intensity);
                self.draw_line((x1, y1), (x0, y1), w, intensity);
                self.draw_line((x0, y1), (x0, y0), w, intensity);
            }
        }
    }

    /// Adds clipped Gaussian pixel noise of the given standard deviation.
    pub fn add_noise<R: Rng + ?Sized>(&mut self, sigma: f64, rng: &mut R) {
        for p in &mut self.pixels {
            *p = (*p + sigma * standard_normal(rng)).clamp(0.0, 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bounds_are_safe() {
        let mut img = Image::new(4, 4);
        img.set(-1, 0, 1.0);
        img.set(0, 100, 1.0);
        assert_eq!(img.get(-1, 0), 0.0);
        assert_eq!(img.get(0, 100), 0.0);
        assert!(img.pixels().iter().all(|&p| p == 0.0));
    }

    #[test]
    fn values_clamped() {
        let mut img = Image::new(2, 2);
        img.set(0, 0, 7.5);
        assert_eq!(img.get(0, 0), 1.0);
        img.set(1, 1, -3.0);
        assert_eq!(img.get(1, 1), 0.0);
    }

    #[test]
    fn line_draws_pixels() {
        let mut img = Image::new(10, 10);
        img.draw_line((1.0, 5.0), (8.0, 5.0), 1.5, 1.0);
        assert!(img.get(4, 5) > 0.0);
        assert_eq!(img.get(4, 0), 0.0);
        assert!(img.pixels().iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn circle_ring_vs_disc() {
        let mut disc = Image::new(20, 20);
        disc.draw_circle((10.0, 10.0), 6.0, None, 1.0);
        assert!(disc.get(10, 10) > 0.0); // center filled

        let mut ring = Image::new(20, 20);
        ring.draw_circle((10.0, 10.0), 6.0, Some(2.0), 1.0);
        assert_eq!(ring.get(10, 10), 0.0); // center empty
        assert!(ring.get(10, 4) > 0.0); // on the ring
    }

    #[test]
    fn rect_filled_and_outline() {
        let mut filled = Image::new(12, 12);
        filled.draw_rect((2.0, 2.0), (9.0, 9.0), None, 1.0);
        assert!(filled.get(5, 5) > 0.0);

        let mut outline = Image::new(12, 12);
        outline.draw_rect((2.0, 2.0), (9.0, 9.0), Some(1.0), 1.0);
        assert_eq!(outline.get(5, 5), 0.0);
        assert!(outline.get(2, 5) > 0.0);
    }

    #[test]
    fn noise_stays_in_range() {
        let mut img = Image::new(8, 8);
        img.draw_rect((0.0, 0.0), (7.0, 7.0), None, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        img.add_noise(0.3, &mut rng);
        assert!(img.pixels().iter().all(|&p| (0.0..=1.0).contains(&p)));
        // Noise actually changed something.
        assert!(img.pixels().iter().any(|&p| (p - 0.5).abs() > 1e-6));
    }

    #[test]
    fn stamp_takes_maximum() {
        let mut img = Image::new(2, 2);
        img.set(0, 0, 0.8);
        img.stamp(0, 0, 0.3);
        assert_eq!(img.get(0, 0), 0.8);
        img.stamp(0, 0, 0.9);
        assert_eq!(img.get(0, 0), 0.9);
    }
}
