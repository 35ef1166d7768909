//! Bit pins of the module layer: the interpreted network walks (forward,
//! taped forward, JVP, VJP), the same walks with one gate plan shared by
//! several inputs, the compiled batch, a pinned rank-1 serve, the
//! calibrator's per-detector error gradients and the natural-gradient
//! blocks, each on three networks with sampled fabrication errors:
//! `two_mesh_classifier` (modReLU), `two_mesh_eo_classifier`
//! (electro-optic activation) and a Reck → PSdiag → modReLU → Reck
//! pipeline. The compiled batch and the pinned serve are pinned once more
//! at K = 10 and K = 16 with 33 inputs, widths at which the GEMM runs full
//! and partial row blocks. Each pinned serve moves a phase of the first
//! mesh, then, served twice each, a phase of the second mesh, the last
//! phase of the network and an activation bias: serves whose change lies
//! past the first stage.
//!
//! Each test hashes the exact bits of its outputs, so a refactor of the
//! module types that reorders any arithmetic fails here. The constants were
//! recorded by printing the hashes from these test bodies; to re-record
//! after a deliberate change, print them again.

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_zo::linalg::random::{normal_cvector, normal_rvector};
use photon_zo::linalg::{CVector, RVector};
use photon_zo::opt::{layered_sigma_segments, BlockNaturalPreconditioner};
use photon_zo::photonics::{
    Architecture, BatchScratch, CompiledNetwork, ErrorModel, ErrorVector, FabricatedChip,
    ModuleSpec, Network, NetworkScratch,
};

/// FNV-1a over the bit patterns of `values`.
fn bits_hash(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn field_bits(v: &CVector) -> impl Iterator<Item = f64> + '_ {
    v.iter().flat_map(|z| [z.re, z.im])
}

/// Serves `xs` twice from `chip`'s pin, each with a fresh scratch, at the
/// pinned `theta` with one phase moved by 0.37: a phase of the second mesh
/// (module 3), the network's last phase (the second PSdiag, or the last
/// Reck phase) and an activation bias (module 2). Checks that both reads
/// agree bitwise and returns the hash of every read.
fn later_stage_serves(
    chip: &FabricatedChip,
    net: &Network,
    theta: &RVector,
    xs: &[&CVector],
) -> u64 {
    let moves = [
        net.module_param_range(3).start + 1,
        net.param_count() - 1,
        net.module_param_range(2).start + 1,
    ];
    let mut values = Vec::new();
    for k in moves {
        let mut moved = theta.clone();
        moved[k] += 0.37;
        let mut reads = Vec::new();
        for _ in 0..2 {
            let mut scratch = BatchScratch::new();
            let fields = chip.forward_batch_into(xs, &moved, &mut scratch);
            reads.push(fields.iter().flat_map(field_bits).collect::<Vec<f64>>());
        }
        assert_eq!(
            bits_hash(reads[0].iter().copied()),
            bits_hash(reads[1].iter().copied()),
            "phase {k}: the second read differs"
        );
        values.extend(reads.concat());
    }
    bits_hash(values)
}

/// One pinned network: its architecture, flat errors, the network built
/// from them, parameters and five inputs.
struct Case {
    arch: Architecture,
    errors: ErrorVector,
    flat: Vec<f64>,
    net: Network,
    theta: RVector,
    xs: Vec<CVector>,
    rng: StdRng,
}

fn cases() -> Vec<Case> {
    let reck = Architecture::new(vec![
        ModuleSpec::Reck { dim: 4 },
        ModuleSpec::PhaseDiag { dim: 4 },
        ModuleSpec::ModRelu { dim: 4 },
        ModuleSpec::Reck { dim: 4 },
    ])
    .unwrap();
    let archs = [
        Architecture::two_mesh_classifier(4, 3).unwrap(),
        Architecture::two_mesh_eo_classifier(4, 2, 0.1, 1.0).unwrap(),
        reck,
    ];
    archs
        .into_iter()
        .enumerate()
        .map(|(i, arch)| {
            let mut rng = StdRng::seed_from_u64(90 + i as u64);
            let (n_bs, n_ps) = arch.error_slots();
            let model = ErrorModel::with_beta(2.0);
            // Round-trip through the flat layout, as the calibrator does, so
            // the error gradients below are taken at exactly these errors.
            let flat = ErrorVector::sample(n_bs, n_ps, &model, &mut rng).to_flat();
            let errors = ErrorVector::from_flat(n_bs, n_ps, &flat).unwrap();
            let net = arch.build_with_errors(&errors).unwrap();
            let mut theta = net.init_params(&mut rng);
            for k in net.module_param_range(2) {
                theta[k] = 0.1;
            }
            let xs = (0..5).map(|_| normal_cvector(4, &mut rng)).collect();
            Case {
                arch,
                errors,
                flat,
                net,
                theta,
                xs,
                rng,
            }
        })
        .collect()
}

/// `[forward, taped, reverse]` per case: the forward outputs of all five
/// inputs, then the taped output and JVP, and the VJP, of the first.
const WALKS: [[u64; 3]; 3] = [
    [0x1f09d112d06bcea0, 0x56b395141e7ad4b5, 0x7da4b74ec13a6955],
    [0xce7859ea9a0393e7, 0xa1e98fd75f72cdb5, 0x03e17c98e1ab5b30],
    [0x2efbedc935b960ff, 0xc6afd28a38fabddc, 0x67955f483b5fc386],
];

#[test]
fn network_forward_and_derivatives_are_bit_pinned() {
    let mut got = Vec::new();
    for mut c in cases() {
        let mut scratch = NetworkScratch::new();
        let forward = bits_hash(c.xs.iter().flat_map(|x| {
            field_bits(c.net.forward_into(x, &c.theta, &mut scratch)).collect::<Vec<_>>()
        }));
        let plan = c.net.gate_plan(&c.theta);
        let mut tape = c.net.new_tape();
        let mut y = CVector::zeros(0);
        c.net
            .forward_tape_into(&c.xs[0], &c.theta, &plan, &mut scratch, &mut y, &mut tape);
        let dx = normal_cvector(4, &mut c.rng);
        let dtheta = normal_rvector(c.net.param_count(), &mut c.rng);
        let g = normal_cvector(4, &mut c.rng);
        let dy = c.net.jvp(&plan, &tape, &c.theta, &dx, &dtheta);
        let (gx, grad) = c.net.vjp(&plan, &tape, &c.theta, &g);
        let taped = bits_hash(field_bits(&y).chain(field_bits(&dy)));
        let reverse = bits_hash(field_bits(&gx).chain(grad.iter().copied()));
        got.push([forward, taped, reverse]);
    }
    assert_eq!(got, WALKS, "{got:#x?}");
}

/// One gate plan and one reused tape serve every input through the taped
/// forward, JVP and VJP (the in-place forms), and reproduce the
/// per-sample pins: the taped outputs of all five inputs hash to the
/// forward pin, the first input's derivatives to its taped and reverse
/// pins.
#[test]
fn one_gate_plan_serves_every_input_bitwise() {
    let mut got = Vec::new();
    for mut c in cases() {
        let dx = normal_cvector(4, &mut c.rng);
        let dtheta = normal_rvector(c.net.param_count(), &mut c.rng);
        let g = normal_cvector(4, &mut c.rng);
        let plan = c.net.gate_plan(&c.theta);
        let mut scratch = NetworkScratch::new();
        let mut tape = c.net.new_tape();
        let (mut y, mut dy, mut gx) = (CVector::zeros(0), dx.clone(), g.clone());
        let mut outputs = Vec::new();
        let mut derivatives = Vec::new();
        for x in &c.xs {
            c.net
                .forward_tape_into(x, &c.theta, &plan, &mut scratch, &mut y, &mut tape);
            outputs.extend(field_bits(&y));
            dy.copy_from(&dx);
            c.net.jvp_into(&plan, &tape, &c.theta, &dtheta, &mut dy);
            gx.copy_from(&g);
            let mut grad = vec![0.0; c.net.param_count()];
            c.net.vjp_into(&plan, &tape, &c.theta, &mut gx, &mut grad);
            derivatives.push([
                bits_hash(field_bits(&y).chain(field_bits(&dy))),
                bits_hash(field_bits(&gx).chain(grad)),
            ]);
        }
        got.push([bits_hash(outputs), derivatives[0][0], derivatives[0][1]]);
    }
    assert_eq!(got, WALKS, "{got:#x?}");
}

#[test]
fn compiled_batch_and_pinned_serve_are_bit_pinned() {
    let mut got = Vec::new();
    for c in cases() {
        let refs: Vec<&CVector> = c.xs.iter().collect();
        let mut plan = CompiledNetwork::new();
        let panel = plan.forward_batch(&c.net, &c.theta, &refs);
        let batch = bits_hash(panel.as_slice().iter().flat_map(|z| [z.re, z.im]));

        let chip = FabricatedChip::with_errors(&c.arch, &c.errors).unwrap();
        chip.pin_compile_base(&c.theta);
        let mut moved = c.theta.clone();
        moved[5] += 0.37;
        let mut scratch = BatchScratch::new();
        let fields = chip.forward_batch_into(&refs, &moved, &mut scratch);
        let pinned = bits_hash(fields.iter().flat_map(field_bits));
        assert_eq!(chip.cache_stats().incremental, 1, "served from the pin");
        let later = later_stage_serves(&chip, &c.net, &c.theta, &refs);
        assert_eq!(chip.cache_stats().incremental, 7, "served from the pin");
        got.push([batch, pinned, later]);
    }
    assert_eq!(
        got,
        [
            [0xdbf9c58f0303f812, 0x99aae08195aeb53b, 0x7d28c5c62fb16e75],
            [0xdbaf8c4cdccb550e, 0x53d4cc77d8969fb0, 0xcd441fc12306a641],
            [0x2b9501fe679325dc, 0x833bd2f6a15669b1, 0x88646b3e9c211625],
        ],
        "{got:#x?}"
    );
}

/// The calibrator's Jacobian rows: the error gradient of every detector's
/// power `|y_d|²` at the second input, one error VJP of `2·y_d` each.
#[test]
fn error_gradients_are_bit_pinned() {
    let mut got = Vec::new();
    for c in cases() {
        let plan = c.net.gate_plan(&c.theta);
        let (y, tape) = c.net.forward_tape(&c.xs[1], &c.theta, &plan);
        let mut values = Vec::new();
        let mut grad = vec![0.0; c.flat.len()];
        for d in 0..y.len() {
            let mut g = CVector::zeros(y.len());
            g[d] = y[d].scale(2.0);
            c.net
                .error_vjp_into(&plan, &tape, &c.theta, &mut g, &mut grad);
            values.extend_from_slice(&grad);
        }
        got.push(bits_hash(values));
    }
    assert_eq!(
        got,
        [0x750c9ca027d2f15c, 0x8c5c892b58705c87, 0xed4979546e1bd6d8],
        "{got:#x?}"
    );
}

#[test]
fn natural_gradient_blocks_are_bit_pinned() {
    let mut got = Vec::new();
    for mut c in cases() {
        let rho = 0.1;
        let pre = BlockNaturalPreconditioner::assemble(&c.net, &c.theta, &c.xs, rho).unwrap();
        let g = normal_rvector(c.net.param_count(), &mut c.rng);
        let applied = bits_hash(pre.apply(&g).iter().copied());
        let segments = layered_sigma_segments(&c.net, &c.theta, &c.xs, rho).unwrap();
        let sigma = bits_hash(
            segments
                .iter()
                .flat_map(|(start, chol)| {
                    std::iter::once(*start as f64).chain(chol.factor().as_slice().iter().copied())
                })
                .collect::<Vec<_>>(),
        );
        got.push([applied, sigma]);
    }
    assert_eq!(
        got,
        [
            [0xe5750f8711b99c59, 0x8014d7b116a4975e],
            [0x04eaad6eb9ad6237, 0x003a1e9949021f31],
            [0x01cbca4742a86b38, 0x1f79c4a24c5cd880],
        ],
        "{got:#x?}"
    );
}

/// The compiled batch and a pinned rank-1 serve of a
/// `two_mesh_classifier(K, K)` chip at K = 10 and K = 16, 33 inputs each.
#[test]
fn wide_compiled_batch_and_pinned_serve_are_bit_pinned() {
    let mut got = Vec::new();
    for k in [10, 16] {
        let mut rng = StdRng::seed_from_u64(k as u64);
        let arch = Architecture::two_mesh_classifier(k, k).unwrap();
        let (n_bs, n_ps) = arch.error_slots();
        let errors = ErrorVector::sample(n_bs, n_ps, &ErrorModel::with_beta(2.0), &mut rng);
        let net = arch.build_with_errors(&errors).unwrap();
        let theta = net.init_params(&mut rng);
        let xs: Vec<CVector> = (0..33).map(|_| normal_cvector(k, &mut rng)).collect();
        let refs: Vec<&CVector> = xs.iter().collect();
        let mut plan = CompiledNetwork::new();
        let panel = plan.forward_batch(&net, &theta, &refs);
        let batch = bits_hash(panel.as_slice().iter().flat_map(|z| [z.re, z.im]));

        let chip = FabricatedChip::with_errors(&arch, &errors).unwrap();
        chip.pin_compile_base(&theta);
        let mut moved = theta.clone();
        moved[5] += 0.37;
        let mut scratch = BatchScratch::new();
        let fields = chip.forward_batch_into(&refs, &moved, &mut scratch);
        let pinned = bits_hash(fields.iter().flat_map(field_bits));
        assert_eq!(chip.cache_stats().incremental, 1, "served from the pin");
        let later = later_stage_serves(&chip, &net, &theta, &refs);
        assert_eq!(chip.cache_stats().incremental, 7, "served from the pin");
        got.push([batch, pinned, later]);
    }
    assert_eq!(
        got,
        [
            [0xb8101abb1141e1ef, 0x2933ba761a5b0050, 0x271c8a19fc964635],
            [0x467b78ba548bc7c9, 0x329dea0bb59c6d6d, 0x6be24818be622da9],
        ],
        "{got:#x?}"
    );
}
