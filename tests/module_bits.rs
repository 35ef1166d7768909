//! Bit pins of the module layer: the interpreted network walks (forward,
//! taped forward, JVP, VJP), the compiled batch, a pinned rank-1 serve,
//! the calibrator's tape-restarted error nudges and the natural-gradient
//! blocks, each on three networks with sampled fabrication errors:
//! `two_mesh_classifier` (modReLU), `two_mesh_eo_classifier`
//! (electro-optic activation) and a Reck → PSdiag → modReLU → Reck
//! pipeline.
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
            // the nudges below start from exactly these errors.
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

#[test]
fn network_forward_and_derivatives_are_bit_pinned() {
    let mut got = Vec::new();
    for mut c in cases() {
        let mut scratch = NetworkScratch::new();
        let forward = bits_hash(c.xs.iter().flat_map(|x| {
            field_bits(c.net.forward_into(x, &c.theta, &mut scratch)).collect::<Vec<_>>()
        }));
        let mut tape = c.net.new_tape();
        let mut y = CVector::zeros(0);
        c.net
            .forward_tape_into(&c.xs[0], &c.theta, &mut scratch, &mut y, &mut tape);
        let dx = normal_cvector(4, &mut c.rng);
        let dtheta = normal_rvector(c.net.param_count(), &mut c.rng);
        let g = normal_cvector(4, &mut c.rng);
        let dy = c.net.jvp(&tape, &c.theta, &dx, &dtheta);
        let (gx, grad) = c.net.vjp(&tape, &c.theta, &g);
        let taped = bits_hash(field_bits(&y).chain(field_bits(&dy)));
        let reverse = bits_hash(field_bits(&gx).chain(grad.iter().copied()));
        got.push([forward, taped, reverse]);
    }
    assert_eq!(
        got,
        [
            [0x1f09d112d06bcea0, 0x56b395141e7ad4b5, 0x7da4b74ec13a6955],
            [0xce7859ea9a0393e7, 0xa1e98fd75f72cdb5, 0x03e17c98e1ab5b30],
            [0x2efbedc935b960ff, 0xc6afd28a38fabddc, 0x67955f483b5fc386],
        ],
        "{got:#x?}"
    );
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
        got.push([batch, pinned]);
    }
    assert_eq!(
        got,
        [
            [0xdbf9c58f0303f812, 0x99aae08195aeb53b],
            [0xdbaf8c4cdccb550e, 0x53d4cc77d8969fb0],
            [0x2b9501fe679325dc, 0x833bd2f6a15669b1],
        ],
        "{got:#x?}"
    );
}

#[test]
fn nudged_outputs_are_bit_pinned() {
    let mut got = Vec::new();
    for c in cases() {
        let mut scratch = NetworkScratch::new();
        let mut tape = c.net.new_tape();
        let mut y = CVector::zeros(0);
        c.net
            .forward_tape_into(&c.xs[1], &c.theta, &mut scratch, &mut y, &mut tape);
        let mut values = Vec::new();
        let mut slots = 0;
        c.net
            .for_each_nudged_output(&tape, &c.theta, &c.flat, 1e-6, &mut scratch, |k, yk| {
                assert_eq!(k, slots);
                slots += 1;
                values.extend(field_bits(yk));
            });
        assert_eq!(slots, c.flat.len());
        got.push(bits_hash(values));
    }
    assert_eq!(
        got,
        [0x0626daf20a800402, 0x34c827bbbdaa460a, 0xac78c9374b4ac8c1],
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
