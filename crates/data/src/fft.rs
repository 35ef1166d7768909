//! Discrete Fourier transforms: radix-2 Cooley-Tukey plus Bluestein's
//! algorithm for arbitrary lengths.
//!
//! The feature extractor needs a 784-point DFT (28×28 images); 784 is not a
//! power of two, so the crate implements Bluestein's chirp-z reduction to a
//! zero-padded power-of-two convolution.
//!
//! # Plans
//!
//! Every transform runs from a plan built once per length and direction.
//! A radix-2 plan holds the bit-reversal permutation (as disjoint swaps)
//! and each butterfly stage's twiddle table. A Bluestein plan of length `N`
//! holds the `N` chirp factors, the spectrum of the chirp kernel (one
//! forward FFT of length `m = 2^⌈log₂(2N−1)⌉`) and the forward and inverse
//! radix-2 plans of length `m`; a transform then costs one forward and one
//! inverse FFT of length `m`. [`fft_pow2`], [`dft`], [`idft`] and
//! [`dft_features`](crate::dft_features) build a one-shot plan per call;
//! [`images_to_dataset`](crate::images_to_dataset) builds one plan for all
//! its images and finishes only the bins it keeps.
//!
//! # Bit contract
//!
//! Every training output depends on the feature bits, so the transforms'
//! arithmetic is fixed to the last bit (tests/dft_bits.rs pins it):
//!
//! - twiddle `k` of the stage of length `len` is the `k`-th iterate of
//!   `w ← w·e^{∓j2π/len}` from `w = 1`, not `e^{∓j2πk/len}` evaluated
//!   directly;
//! - every butterfly multiplies by its twiddle, also at `k = 0` where it
//!   is 1, since `z·1` can turn a `−0.0` into `+0.0`;
//! - a Bluestein input enters as the complex product `x_k·w_k` with the
//!   chirp `w_k = e^{∓jπk²/N}`, whose angle is taken from `k² mod 2N` in
//!   integers; a real input is a complex one with zero imaginary parts,
//!   never a real-times-complex shortcut;
//! - inverse transforms scale by `1/m` after the inverse FFT, then
//!   multiply by the chirp, then scale by `1/N`.

use std::ops::Range;

use photon_linalg::{CVector, C64};

/// A radix-2 FFT of one power-of-two length and direction.
#[derive(Debug)]
struct Radix2 {
    /// The bit-reversal permutation as disjoint swaps `(i, j)`, `i < j`.
    swaps: Vec<(usize, usize)>,
    /// The twiddles of every stage; the stage of length `len` owns entries
    /// `len/2 − 1 .. len − 1`.
    twiddles: Vec<C64>,
    /// The inverse transform's `1/n` normalization, when it applies.
    scale: Option<f64>,
}

impl Radix2 {
    /// The plan of the length-`n` transform; `n` must be a power of two
    /// or zero.
    fn new(n: usize, inverse: bool) -> Self {
        debug_assert!(n <= 1 || n.is_power_of_two());
        let mut swaps = Vec::new();
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                swaps.push((i, j));
            }
        }
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let wlen = C64::cis(sign * std::f64::consts::TAU / len as f64);
            let mut w = C64::ONE;
            for _ in 0..len / 2 {
                twiddles.push(w);
                w *= wlen;
            }
            len <<= 1;
        }
        let scale = (inverse && n > 1).then(|| 1.0 / n as f64);
        Radix2 {
            swaps,
            twiddles,
            scale,
        }
    }

    /// Transforms `data` in place.
    fn run(&self, data: &mut [C64]) {
        for &(i, j) in &self.swaps {
            data.swap(i, j);
        }
        let n = data.len();
        let mut half = 1;
        while half < n {
            let len = 2 * half;
            let twiddles = &self.twiddles[half - 1..len - 1];
            for block in data.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(twiddles) {
                    let u = *a;
                    let v = *b * w;
                    *a = u + v;
                    *b = u - v;
                }
            }
            half = len;
        }
        if let Some(scale) = self.scale {
            for z in data.iter_mut() {
                *z *= scale;
            }
        }
    }
}

/// Bluestein's chirp-z reduction of a length-`n` DFT to a circular
/// convolution of power-of-two length `m ≥ 2n − 1`.
#[derive(Debug)]
struct Bluestein {
    /// Chirp factors `w_k = e^{sign·jπk²/n}`.
    chirp: Vec<C64>,
    /// The forward FFT of the kernel `b` (`b_k = b_{m−k} = conj(w_k)`).
    kernel: Vec<C64>,
    forward: Radix2,
    inverse: Radix2,
    /// The inverse DFT's `1/n` normalization, when it applies.
    scale: Option<f64>,
}

impl Bluestein {
    fn new(n: usize, inverse: bool) -> Self {
        let sign = if inverse { 1.0 } else { -1.0 };
        // k² mod 2N keeps the angle exact.
        let chirp: Vec<C64> = (0..n)
            .map(|k| {
                let kk = (k as u128 * k as u128) % (2 * n as u128);
                C64::cis(sign * std::f64::consts::PI * kk as f64 / n as f64)
            })
            .collect();
        let m = (2 * n - 1).next_power_of_two();
        let forward = Radix2::new(m, false);
        let mut kernel = vec![C64::ZERO; m];
        kernel[0] = chirp[0].conj();
        for k in 1..n {
            let c = chirp[k].conj();
            kernel[k] = c;
            kernel[m - k] = c;
        }
        forward.run(&mut kernel);
        Bluestein {
            chirp,
            kernel,
            forward,
            inverse: Radix2::new(m, true),
            scale: inverse.then(|| 1.0 / n as f64),
        }
    }
}

#[derive(Debug)]
enum Algorithm {
    Radix2(Radix2),
    Bluestein(Bluestein),
}

/// The DFT of one length and direction, with everything that depends only
/// on those two computed once (see the module docs).
#[derive(Debug)]
pub(crate) struct DftPlan {
    n: usize,
    algorithm: Algorithm,
}

impl DftPlan {
    /// The plan of the length-`n` forward DFT, or of the inverse DFT (with
    /// its `1/n` normalization) when `inverse` is set.
    pub(crate) fn new(n: usize, inverse: bool) -> Self {
        let algorithm = if n <= 1 || n.is_power_of_two() {
            Algorithm::Radix2(Radix2::new(n, inverse))
        } else {
            Algorithm::Bluestein(Bluestein::new(n, inverse))
        };
        DftPlan { n, algorithm }
    }

    /// The transform length.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// The transform of `x`.
    fn transform(&self, x: &CVector) -> CVector {
        let mut work = Vec::new();
        self.run(x.iter().copied(), &mut work);
        CVector::from_fn(self.n, |k| self.bin(&work, k))
    }

    /// Bins `bins` of the transform of the real signal `x`, which enters
    /// as complex values with zero imaginary parts. `work` is scratch
    /// storage that a caller may reuse across calls.
    pub(crate) fn real_bins(&self, x: &[f64], bins: Range<usize>, work: &mut Vec<C64>) -> CVector {
        self.run(x.iter().map(|&v| C64::from_real(v)), work);
        CVector::from_fn(bins.len(), |i| self.bin(work, bins.start + i))
    }

    /// Leaves in `work` what [`Self::bin`] reads: the transform itself for
    /// a radix-2 plan, the inverse FFT of the convolution for Bluestein.
    fn run(&self, input: impl ExactSizeIterator<Item = C64>, work: &mut Vec<C64>) {
        assert_eq!(input.len(), self.n, "input length differs from the plan's");
        work.clear();
        match &self.algorithm {
            Algorithm::Radix2(fft) => {
                work.extend(input);
                fft.run(work);
            }
            Algorithm::Bluestein(b) => {
                work.resize(b.kernel.len(), C64::ZERO);
                for ((a, x), &w) in work.iter_mut().zip(input).zip(&b.chirp) {
                    *a = x * w;
                }
                b.forward.run(work);
                for (a, &k) in work.iter_mut().zip(&b.kernel) {
                    *a *= k;
                }
                b.inverse.run(work);
            }
        }
    }

    /// Output bin `k` from a [`Self::run`] result.
    fn bin(&self, work: &[C64], k: usize) -> C64 {
        match &self.algorithm {
            Algorithm::Radix2(_) => work[k],
            Algorithm::Bluestein(b) => {
                let y = work[k] * b.chirp[k];
                match b.scale {
                    Some(s) => y * s,
                    None => y,
                }
            }
        }
    }
}

/// In-place iterative radix-2 Cooley-Tukey FFT.
///
/// `inverse` selects the sign convention; the inverse transform includes the
/// `1/n` normalization.
///
/// # Panics
///
/// Panics when `data.len()` is not a power of two.
pub fn fft_pow2(data: &mut [C64], inverse: bool) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "fft_pow2 requires a power-of-two length, got {n}"
    );
    Radix2::new(n, inverse).run(data);
}

/// Forward DFT of arbitrary length:
/// `X_k = Σ_n x_n · e^{−j·2πkn/N}`.
///
/// Power-of-two lengths use radix-2 directly; other lengths use Bluestein's
/// algorithm (O(N log N)).
///
/// # Examples
///
/// ```
/// use photon_linalg::{C64, CVector};
/// use photon_data::dft;
///
/// // DFT of a constant signal concentrates everything in bin 0.
/// let x = CVector::from_real_slice(&[1.0; 6]);
/// let spectrum = dft(&x);
/// assert!((spectrum[0] - C64::from_real(6.0)).abs() < 1e-10);
/// assert!(spectrum[1].abs() < 1e-10);
/// ```
pub fn dft(x: &CVector) -> CVector {
    DftPlan::new(x.len(), false).transform(x)
}

/// Inverse DFT of arbitrary length (includes the `1/N` normalization).
pub fn idft(x: &CVector) -> CVector {
    DftPlan::new(x.len(), true).transform(x)
}

/// Reference O(N²) DFT used for validation.
pub fn dft_naive(x: &CVector) -> CVector {
    let n = x.len();
    CVector::from_fn(n, |k| {
        let mut acc = C64::ZERO;
        for (i, &xi) in x.iter().enumerate() {
            let ang = -std::f64::consts::TAU * (k as f64) * (i as f64) / n as f64;
            acc += xi * C64::cis(ang);
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_linalg::random::normal_cvector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pow2_matches_naive() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [1usize, 2, 4, 8, 16, 64] {
            let x = normal_cvector(n, &mut rng);
            let fast = dft(&x);
            let slow = dft_naive(&x);
            assert!((&fast - &slow).max_abs() < 1e-8, "n={n}");
        }
    }

    #[test]
    fn bluestein_matches_naive() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in [3usize, 5, 6, 7, 12, 28, 100, 784] {
            let x = normal_cvector(n, &mut rng);
            let fast = dft(&x);
            let slow = dft_naive(&x);
            assert!((&fast - &slow).max_abs() < 1e-6, "n={n}");
        }
    }

    #[test]
    fn roundtrip_identity() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [8usize, 28, 784] {
            let x = normal_cvector(n, &mut rng);
            let back = idft(&dft(&x));
            assert!((&back - &x).max_abs() < 1e-9, "n={n}");
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = normal_cvector(100, &mut rng);
        let spec = dft(&x);
        assert!((spec.norm_sqr() / 100.0 - x.norm_sqr()).abs() < 1e-8);
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let x = CVector::basis(13, 0);
        let spec = dft(&x);
        for k in 0..13 {
            assert!((spec[k] - C64::ONE).abs() < 1e-10);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 32;
        let x = CVector::from_fn(n, |i| {
            C64::cis(std::f64::consts::TAU * 3.0 * i as f64 / n as f64)
        });
        let spec = dft(&x);
        assert!((spec[3] - C64::from_real(n as f64)).abs() < 1e-8);
        for k in 0..n {
            if k != 3 {
                assert!(spec[k].abs() < 1e-8, "leakage in bin {k}");
            }
        }
    }

    #[test]
    fn empty_and_unit_lengths() {
        assert_eq!(dft(&CVector::zeros(0)).len(), 0);
        let one = CVector::from_real_slice(&[5.0]);
        assert!((dft(&one)[0] - C64::from_real(5.0)).abs() < 1e-12);
        assert!((idft(&one)[0] - C64::from_real(5.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn fft_pow2_rejects_odd_length() {
        let mut buf = vec![C64::ZERO; 6];
        fft_pow2(&mut buf, false);
    }
}
