//! Opt-in quantized serving mode: i16 fixed-point inference for all-linear
//! networks.
//!
//! NNUE-style deployment tier: the network's fused transfer matrix is
//! quantized once to `i16` with one `f32` scale per output row, and every
//! serve runs on integer multiply-accumulate (four integer MACs per complex
//! term, accumulated in `i64` so no intermediate can overflow). Activations
//! are quantized dynamically per input vector with a single symmetric scale.
//!
//! This tier is for *serving only*. Training and calibration keep the `f64`
//! interpreted walk as the bitwise oracle; the quantized path trades ≈0.5 %
//! accuracy-class error for integer-width arithmetic and a 4× smaller
//! weight footprint, and [`QuantizedNetwork::to_bytes`] /
//! [`QuantizedNetwork::from_bytes`] give a byte-exact deployable artifact.

use photon_linalg::{CMatrix, CVector, RVector, C64};

use crate::module::Module;
use crate::network::Network;

/// Serialization magic prefix (`b"PQNT"`).
const MAGIC: [u8; 4] = *b"PQNT";
/// Serialization format version.
const VERSION: u32 = 1;
/// Symmetric i16 quantization ceiling.
const QMAX: f32 = i16::MAX as f32;

/// One quantized dense complex matrix: row-major `i16` real/imaginary
/// planes with a per-row `f32` dequantization scale.
#[derive(Debug, Clone, PartialEq)]
pub struct QMatrix {
    rows: usize,
    cols: usize,
    /// Per-row scale: `true_value ≈ scale[r] · q[r, c]`.
    row_scale: Vec<f32>,
    re: Vec<i16>,
    im: Vec<i16>,
}

impl QMatrix {
    /// Quantizes a dense complex matrix with one symmetric scale per row
    /// (the row's max absolute *finite* real/imaginary component maps to
    /// `i16::MAX`). An all-zero row gets scale `0`, reproducing it
    /// exactly; non-finite components saturate per component (±`i16::MAX`
    /// for ±∞, `0` for NaN) instead of poisoning the row scale — a row
    /// scale of `0`, a denormal, or ∞ would dequantize every entry of the
    /// row into NaN or garbage.
    pub fn quantize(m: &CMatrix) -> QMatrix {
        let (rows, cols) = (m.rows(), m.cols());
        let mut row_scale = Vec::with_capacity(rows);
        let mut re = Vec::with_capacity(rows * cols);
        let mut im = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            let row = m.row(r);
            let amax = row
                .iter()
                .flat_map(|z| [z.re, z.im])
                .filter(|v| v.is_finite())
                .fold(0.0f64, |acc, v| acc.max(v.abs()));
            let scale = row_quant_scale(amax);
            row_scale.push(scale);
            let inv = if scale == 0.0 { 0.0 } else { 1.0 / scale as f64 };
            for z in row {
                re.push(quantize_component(z.re, inv));
                im.push(quantize_component(z.im, inv));
            }
        }
        QMatrix {
            rows,
            cols,
            row_scale,
            re,
            im,
        }
    }

    /// Number of output rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of input columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Applies the quantized matrix to a dynamically quantized activation
    /// vector, writing the dequantized `f64` result into `out`.
    ///
    /// The input is quantized with one symmetric scale for the whole
    /// vector, the complex MAC runs as four integer multiplies per term
    /// accumulated in `i64` (`i16·i16` products are ≤ 2³⁰, so billions of
    /// terms fit without overflow), and the row scale × activation scale
    /// product dequantizes the accumulator.
    fn apply(&self, qx: &QActivations, out: &mut CVector) {
        debug_assert_eq!(qx.re.len(), self.cols, "activation/matrix dim mismatch");
        out.resize_zeroed(self.rows);
        for r in 0..self.rows {
            let (mut acc_re, mut acc_im) = (0i64, 0i64);
            let base = r * self.cols;
            let wr = &self.re[base..base + self.cols];
            let wi = &self.im[base..base + self.cols];
            for c in 0..self.cols {
                let (ar, ai) = (wr[c] as i64, wi[c] as i64);
                let (xr, xi) = (qx.re[c] as i64, qx.im[c] as i64);
                acc_re += ar * xr - ai * xi;
                acc_im += ar * xi + ai * xr;
            }
            let s = self.row_scale[r] as f64 * qx.scale;
            out.as_mut_slice()[r] = C64::new(acc_re as f64 * s, acc_im as f64 * s);
        }
    }

    fn byte_len(&self) -> usize {
        4 + 4 + self.rows * 4 + self.rows * self.cols * 4
    }

    fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.rows as u32).to_le_bytes());
        out.extend_from_slice(&(self.cols as u32).to_le_bytes());
        for s in &self.row_scale {
            out.extend_from_slice(&s.to_le_bytes());
        }
        for q in &self.re {
            out.extend_from_slice(&q.to_le_bytes());
        }
        for q in &self.im {
            out.extend_from_slice(&q.to_le_bytes());
        }
    }

    fn read_bytes(r: &mut ByteReader<'_>) -> Option<QMatrix> {
        let rows = r.u32()? as usize;
        let cols = r.u32()? as usize;
        let n = rows.checked_mul(cols)?;
        let mut row_scale = Vec::with_capacity(rows);
        for _ in 0..rows {
            row_scale.push(f32::from_le_bytes(r.take::<4>()?));
        }
        let mut re = Vec::with_capacity(n);
        for _ in 0..n {
            re.push(i16::from_le_bytes(r.take::<2>()?));
        }
        let mut im = Vec::with_capacity(n);
        for _ in 0..n {
            im.push(i16::from_le_bytes(r.take::<2>()?));
        }
        Some(QMatrix {
            rows,
            cols,
            row_scale,
            re,
            im,
        })
    }
}

/// Guarded per-row dequantization scale for a row whose largest finite
/// component magnitude is `amax`: `0` for an all-zero (or all-non-finite)
/// row, and otherwise clamped into `[f32::MIN_POSITIVE, f32::MAX]` so the
/// stored `f32` scale can never be zero, subnormal, or infinite — a
/// subnormal scale flushes rows to garbage on dequantize and an infinite
/// one turns the whole row into NaN via `0 · ∞`.
fn row_quant_scale(amax: f64) -> f32 {
    if amax.is_nan() || amax <= 0.0 {
        return 0.0;
    }
    ((amax / QMAX as f64) as f32).clamp(f32::MIN_POSITIVE, f32::MAX)
}

/// Rounds `v / scale` to the nearest representable `i16` step
/// (`inv = 1/scale`, `0` for an all-zero row), saturating explicitly:
/// out-of-range and ±∞ values clamp to the `i16` range and NaN maps to
/// `0` (NaN passes through `clamp` into Rust's saturating float→int
/// cast), so no input can overflow the integer plane.
fn quantize_component(v: f64, inv: f64) -> i16 {
    let q = (v * inv).round();
    q.clamp(i16::MIN as f64, i16::MAX as f64) as i16
}

/// A dynamically quantized activation vector (one symmetric scale for the
/// whole vector), reused across stages.
struct QActivations {
    re: Vec<i16>,
    im: Vec<i16>,
    /// Dequantization scale: `true_value ≈ scale · q`.
    scale: f64,
}

impl QActivations {
    fn from_field(x: &CVector) -> QActivations {
        let amax = x
            .iter()
            .map(|z| z.re.abs().max(z.im.abs()))
            .fold(0.0f64, f64::max);
        let scale = if amax == 0.0 { 0.0 } else { amax / QMAX as f64 };
        let inv = if scale == 0.0 { 0.0 } else { 1.0 / scale };
        let mut re = Vec::with_capacity(x.len());
        let mut im = Vec::with_capacity(x.len());
        for z in x.iter() {
            re.push(quantize_component(z.re, inv));
            im.push(quantize_component(z.im, inv));
        }
        QActivations { re, im, scale }
    }
}

/// A network frozen at a fixed `theta` and quantized to `i16` fixed point
/// for serving.
///
/// Built by [`QuantizedNetwork::quantize`] from an *all-linear* network
/// (every module a mesh): the whole pipeline fuses into one dense
/// transfer matrix before quantization, so a serve is a single integer
/// matrix-vector product. Networks containing nonlinear modules (modReLU,
/// electro-optic activations) cannot be frozen this way and return `None`
/// — between-stage activations would need requantization around a float
/// nonlinearity, which this format does not yet encode (the serialized
/// layout already carries a stage list for forward compatibility).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedNetwork {
    stages: Vec<QMatrix>,
}

impl QuantizedNetwork {
    /// Fuses `net` at `theta` into one transfer matrix and quantizes it.
    /// Returns `None` when any module is an activation.
    ///
    /// # Panics
    ///
    /// Panics when `theta.len() != net.param_count()`.
    pub fn quantize(net: &Network, theta: &RVector) -> Option<QuantizedNetwork> {
        assert_eq!(theta.len(), net.param_count(), "theta length mismatch");
        let mut acc = CMatrix::identity(net.input_dim());
        for (i, m) in net.modules().iter().enumerate() {
            let Module::Mesh(mesh) = m else {
                return None;
            };
            mesh.compile_apply(&theta.as_slice()[net.module_param_range(i)], &mut acc);
        }
        Some(QuantizedNetwork {
            stages: vec![QMatrix::quantize(&acc)],
        })
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.stages[0].cols()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.stages[self.stages.len() - 1].rows()
    }

    /// Serves one field measurement on the integer path.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != self.input_dim()`.
    pub fn forward(&self, x: &CVector) -> CVector {
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        let mut cur = QActivations::from_field(x);
        let mut out = CVector::zeros(0);
        for (k, stage) in self.stages.iter().enumerate() {
            stage.apply(&cur, &mut out);
            if k + 1 < self.stages.len() {
                cur = QActivations::from_field(&out);
            }
        }
        out
    }

    /// Serves one power measurement (|field|² per port) on the integer
    /// path.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != self.input_dim()`.
    pub fn forward_powers(&self, x: &CVector) -> RVector {
        let y = self.forward(x);
        let mut p = RVector::zeros(y.len());
        for (dst, z) in p.iter_mut().zip(y.iter()) {
            *dst = z.norm_sqr();
        }
        p
    }

    /// Serializes to the `PQNT` byte format: magic, version, stage count,
    /// then per stage `rows·cols` header, `f32` LE row scales and `i16` LE
    /// real/imaginary planes. The encoding is canonical — equal networks
    /// produce identical bytes, so `from_bytes ∘ to_bytes` is the identity
    /// and `to_bytes ∘ from_bytes` reproduces the input byte-exactly.
    pub fn to_bytes(&self) -> Vec<u8> {
        let body: usize = self.stages.iter().map(QMatrix::byte_len).sum();
        let mut out = Vec::with_capacity(4 + 4 + 4 + body);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.stages.len() as u32).to_le_bytes());
        for s in &self.stages {
            s.write_bytes(&mut out);
        }
        out
    }

    /// Parses the `PQNT` byte format. Returns `None` on a bad magic,
    /// unknown version, truncated buffer, or trailing garbage.
    pub fn from_bytes(bytes: &[u8]) -> Option<QuantizedNetwork> {
        let mut r = ByteReader { buf: bytes };
        if r.take::<4>()? != MAGIC || r.u32()? != VERSION {
            return None;
        }
        let n_stages = r.u32()? as usize;
        if n_stages == 0 {
            return None;
        }
        let mut stages = Vec::with_capacity(n_stages);
        for _ in 0..n_stages {
            stages.push(QMatrix::read_bytes(&mut r)?);
        }
        r.buf.is_empty().then_some(QuantizedNetwork { stages })
    }
}

/// Minimal cursor over a byte buffer for [`QuantizedNetwork::from_bytes`].
struct ByteReader<'a> {
    buf: &'a [u8],
}

impl ByteReader<'_> {
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        if self.buf.len() < N {
            return None;
        }
        let (head, tail) = self.buf.split_at(N);
        self.buf = tail;
        Some(head.try_into().expect("split_at guarantees length"))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take::<4>().map(u32::from_le_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Architecture;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn linear_net(dim: usize) -> (Network, RVector) {
        let arch = Architecture::single_mesh(dim, dim).expect("valid architecture");
        let net = crate::chip::ideal_model(&arch);
        let mut rng = StdRng::seed_from_u64(11);
        let theta = net.init_params(&mut rng);
        (net, theta)
    }

    #[test]
    fn quantized_forward_tracks_f64_network() {
        let (net, theta) = linear_net(8);
        let q = QuantizedNetwork::quantize(&net, &theta).expect("all-linear net");
        for s in 0..8 {
            let x = CVector::basis(8, s);
            let exact = net.forward(&x, &theta);
            let served = q.forward(&x);
            for (a, b) in exact.iter().zip(served.iter()) {
                assert!(
                    (*a - *b).norm_sqr().sqrt() < 2e-3,
                    "exact {a:?} vs quantized {b:?}"
                );
            }
        }
    }

    #[test]
    fn nonlinear_networks_are_rejected() {
        let arch = Architecture::two_mesh_classifier(4, 4).expect("valid architecture");
        let net = crate::chip::ideal_model(&arch);
        let mut rng = StdRng::seed_from_u64(3);
        let theta = net.init_params(&mut rng);
        assert!(QuantizedNetwork::quantize(&net, &theta).is_none());
    }

    #[test]
    fn byte_roundtrip_is_exact() {
        let (net, theta) = linear_net(6);
        let q = QuantizedNetwork::quantize(&net, &theta).expect("all-linear net");
        let bytes = q.to_bytes();
        let back = QuantizedNetwork::from_bytes(&bytes).expect("valid buffer");
        assert_eq!(back, q);
        assert_eq!(back.to_bytes(), bytes, "re-serialization is byte-exact");
    }

    /// Regression test for the row-scale guard: a non-finite component
    /// used to drive the row scale to ∞ (`inv = 0`, every quantized entry
    /// NaN→0, dequantize `0 · ∞ = NaN`), poisoning the whole row. Now it
    /// saturates per component and every served value stays finite.
    #[test]
    fn non_finite_rows_saturate_instead_of_nan() {
        let m = CMatrix::from_rows(&[
            vec![C64::new(1.0, 0.0), C64::new(f64::INFINITY, 0.0)],
            vec![C64::new(0.5, f64::NAN), C64::new(-0.25, 0.0)],
            vec![C64::new(f64::NEG_INFINITY, f64::NAN), C64::new(f64::INFINITY, 0.0)],
        ]);
        let qm = QMatrix::quantize(&m);
        assert!(
            qm.row_scale.iter().all(|s| s.is_finite()),
            "row scales must be finite: {:?}",
            qm.row_scale
        );
        let q = QuantizedNetwork { stages: vec![qm] };
        let x = CVector::from_vec(vec![C64::new(1.0, 0.0), C64::new(0.0, 1.0)]);
        let y = q.forward(&x);
        assert!(
            y.iter().all(|z| z.re.is_finite() && z.im.is_finite()),
            "serving a quantized non-finite row must stay finite: {y:?}"
        );
        // The ∞ component saturated to the quantization ceiling rather
        // than flattening its row to zero.
        assert_eq!(q.stages[0].re[1], i16::MAX);
        // The finite neighbours of a poisoned component survive.
        assert!(q.stages[0].re[0] > 0);
        assert!(q.stages[0].re[3] < 0);
    }

    /// A huge-but-finite row must not overflow the f32 row scale into ∞,
    /// and a tiny row must not store a zero/subnormal scale.
    #[test]
    fn extreme_magnitude_rows_keep_normal_scales() {
        let m = CMatrix::from_rows(&[
            vec![C64::new(1e300, 0.0), C64::new(-1e299, 0.0)],
            vec![C64::new(1e-44, 0.0), C64::new(0.0, -1e-45)],
            vec![C64::new(0.0, 0.0), C64::new(0.0, 0.0)],
        ]);
        let qm = QMatrix::quantize(&m);
        assert_eq!(qm.row_scale[0], f32::MAX, "huge rows clamp, not overflow");
        assert!(
            qm.row_scale[1] == 0.0 || qm.row_scale[1].is_normal(),
            "tiny rows must not store a subnormal scale: {:?}",
            qm.row_scale[1]
        );
        assert_eq!(qm.row_scale[2], 0.0, "all-zero row keeps scale 0");
        assert!(qm.re.iter().chain(&qm.im).skip(4).all(|&v| v == 0));
        let q = QuantizedNetwork { stages: vec![qm] };
        let y = q.forward(&CVector::from_vec(vec![C64::new(1.0, 0.5), C64::new(-0.5, 1.0)]));
        assert!(y.iter().all(|z| z.re.is_finite() && z.im.is_finite()), "{y:?}");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// One matrix row drawn from the adversarial classes the scale
        /// guard must survive: all-zero, near the f64 magnitude ceiling,
        /// and ordinary O(1) values.
        fn arb_component() -> impl Strategy<Value = f64> {
            prop_oneof![
                Just(0.0f64),
                (0.5f64..1e308).prop_flat_map(|m| prop_oneof![Just(m), Just(-m)]),
                -2.0f64..2.0,
            ]
        }

        fn arb_row(cols: usize) -> impl Strategy<Value = Vec<C64>> {
            prop_oneof![
                Just(vec![C64::new(0.0, 0.0); cols]),
                proptest::collection::vec(
                    (arb_component(), arb_component()).prop_map(|(re, im)| C64::new(re, im)),
                    cols
                ),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Quantizing any mix of zero / max-magnitude / ordinary rows
            /// yields finite normal-or-zero scales, and the serialized
            /// artifact round-trips byte-exactly in both directions.
            #[test]
            fn adversarial_rows_roundtrip_byte_exactly(
                rows in proptest::collection::vec(arb_row(3), 1..5),
            ) {
                let m = CMatrix::from_rows(&rows);
                let qm = QMatrix::quantize(&m);
                for s in &qm.row_scale {
                    prop_assert!(*s == 0.0 || s.is_normal(), "bad scale {s:?}");
                }
                let q = QuantizedNetwork { stages: vec![qm] };
                let bytes = q.to_bytes();
                let back = QuantizedNetwork::from_bytes(&bytes).expect("valid buffer");
                prop_assert_eq!(&back, &q);
                prop_assert_eq!(back.to_bytes(), bytes);
                let x = CVector::from_vec(vec![
                    C64::new(1.0, 0.0),
                    C64::new(0.0, -1.0),
                    C64::new(0.5, 0.5),
                ]);
                let y = q.forward(&x);
                prop_assert!(
                    y.iter().all(|z| z.re.is_finite() && z.im.is_finite()),
                    "quantized serve must stay finite: {:?}", y
                );
            }
        }
    }

    #[test]
    fn malformed_buffers_are_rejected() {
        let (net, theta) = linear_net(4);
        let q = QuantizedNetwork::quantize(&net, &theta).expect("all-linear net");
        let bytes = q.to_bytes();
        assert!(QuantizedNetwork::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(QuantizedNetwork::from_bytes(&bad_magic).is_none());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(QuantizedNetwork::from_bytes(&trailing).is_none());
    }
}
