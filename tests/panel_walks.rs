//! Panel walks against the single-vector walks, bit for bit: on random
//! networks (Clements, Reck and PSdiag meshes around a modReLU or an
//! electro-optic activation) with random fabrication errors, phases,
//! inputs, tangents and cotangents, and panel widths 1 to 17, every column
//! of a JVP, VJP and error VJP panel carries the bits of the single walk on
//! that column's inputs, input cotangents included. The Fisher products,
//! which run on panels, keep the bits of the per-direction walks reduced
//! along the same tree.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use photon_zo::exec::{tree_reduce, ExecPool};
use photon_zo::linalg::random::{normal_cvector, normal_rvector};
use photon_zo::linalg::{CVector, RVector};
use photon_zo::photonics::{
    fisher_vector_products, Architecture, ErrorModel, ErrorVector, ModuleSpec, Network,
    NetworkScratch, NetworkTape, StatePanel,
};

fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

fn field_bits(v: &CVector) -> Vec<u64> {
    bits(v.iter().flat_map(|z| [z.re, z.im]))
}

fn column(panel: &StatePanel, c: usize) -> CVector {
    let mut out = CVector::zeros(0);
    panel.column_into(c, &mut out);
    out
}

/// Column `c` of a param-major `n × q` panel.
fn param_column(panel: &[f64], n: usize, q: usize, c: usize) -> Vec<f64> {
    (0..n).map(|k| panel[k * q + c]).collect()
}

/// A mesh spec of kind `kind` (Clements, Reck or PSdiag) on `dim` ports.
fn mesh(kind: usize, dim: usize, layers: usize) -> ModuleSpec {
    match kind {
        0 => ModuleSpec::Clements { dim, layers },
        1 => ModuleSpec::Reck { dim },
        _ => ModuleSpec::PhaseDiag { dim },
    }
}

/// `mesh → PSdiag → activation → mesh`, with sampled fabrication errors and
/// phases; the activation biases straddle modReLU's gate.
fn network(
    dim: usize,
    kinds: (usize, usize),
    layers: usize,
    eo: bool,
    rng: &mut StdRng,
) -> (Network, RVector) {
    let activation = if eo {
        ModuleSpec::ElectroOptic {
            dim,
            alpha: 0.1,
            gain: 1.3,
        }
    } else {
        ModuleSpec::ModRelu { dim }
    };
    let arch = Architecture::new(vec![
        mesh(kinds.0, dim, layers),
        ModuleSpec::PhaseDiag { dim },
        activation,
        mesh(kinds.1, dim, layers),
    ])
    .unwrap();
    let (n_bs, n_ps) = arch.error_slots();
    let errors = ErrorVector::sample(n_bs, n_ps, &ErrorModel::with_beta(2.0), rng);
    let net = arch.build_with_errors(&errors).unwrap();
    let mut theta = net.init_params(rng);
    for k in net.module_param_range(2) {
        theta[k] = rng.gen_range(-1.2..0.4);
    }
    (net, theta)
}

/// Taped forward of `x` on its own tape.
fn tape_of(net: &Network, theta: &RVector, x: &CVector) -> NetworkTape {
    let plan = net.gate_plan(theta);
    let mut tape = net.new_tape();
    let mut y = CVector::zeros(0);
    net.forward_tape_into(
        x,
        theta,
        &plan,
        &mut NetworkScratch::new(),
        &mut y,
        &mut tape,
    );
    tape
}

/// A panel whose columns are `cols`.
fn panel_of(cols: &[CVector]) -> StatePanel {
    let mut panel = StatePanel::zeros(cols[0].len(), cols.len());
    for (c, v) in cols.iter().enumerate() {
        panel.set_column(c, v);
    }
    panel
}

/// `q` random columns of length `len`; every third is zero, the Fisher
/// products' input tangent.
fn columns(len: usize, q: usize, rng: &mut StdRng) -> Vec<CVector> {
    (0..q)
        .map(|c| {
            if c % 3 == 0 {
                CVector::zeros(len)
            } else {
                normal_cvector(len, rng)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// JVP and VJP panels at one shared tape.
    #[test]
    fn shared_tape_panels_match_single_walks(
        dim in 2usize..7,
        kinds in (0usize..3, 0usize..3),
        layers in 1usize..5,
        eo in any::<bool>(),
        q in 1usize..18,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (net, theta) = network(dim, kinds, layers, eo, &mut rng);
        let n = net.param_count();
        let plan = net.gate_plan(&theta);
        let tape = tape_of(&net, &theta, &normal_cvector(dim, &mut rng));

        let dx = columns(dim, q, &mut rng);
        let dthetas: Vec<RVector> = (0..q).map(|_| normal_rvector(n, &mut rng)).collect();
        let mut dtheta = vec![0.0; n * q];
        for (c, v) in dthetas.iter().enumerate() {
            for k in 0..n {
                dtheta[k * q + c] = v[k];
            }
        }
        let mut panel = panel_of(&dx);
        net.jvp_panel_into(&plan, &tape, &theta, &dtheta, &mut panel);
        for (c, (dx, dtheta)) in dx.iter().zip(&dthetas).enumerate() {
            let mut single = dx.clone();
            net.jvp_into(&plan, &tape, &theta, dtheta, &mut single);
            prop_assert_eq!(field_bits(&column(&panel, c)), field_bits(&single), "jvp column {}", c);
        }

        let gy = columns(dim, q, &mut rng);
        let mut panel = panel_of(&gy);
        let mut grad = vec![0.0; n * q];
        net.vjp_panel_into(&plan, &tape, &theta, &mut panel, &mut grad);
        for (c, gy) in gy.iter().enumerate() {
            let mut single = gy.clone();
            let mut g = vec![0.0; n];
            net.vjp_into(&plan, &tape, &theta, &mut single, &mut g);
            prop_assert_eq!(field_bits(&column(&panel, c)), field_bits(&single), "vjp column {}", c);
            prop_assert_eq!(bits(param_column(&grad, n, q, c)), bits(g), "vjp gradient {}", c);
        }
    }

    /// The error VJP panel writes each error's columns side by side at the
    /// stride and nothing else.
    #[test]
    fn error_vjp_panel_matches_single_walks(
        dim in 2usize..7,
        kinds in (0usize..3, 0usize..3),
        layers in 1usize..5,
        eo in any::<bool>(),
        q in 1usize..18,
        pad in 0usize..4,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (net, theta) = network(dim, kinds, layers, eo, &mut rng);
        let plan = net.gate_plan(&theta);
        let tape = tape_of(&net, &theta, &normal_cvector(dim, &mut rng));
        let n_err = net.collect_errors().to_flat().len();
        let stride = q + pad;
        let gy = columns(dim, q, &mut rng);
        let mut panel = panel_of(&gy);
        let sentinel = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut out = vec![sentinel; n_err * stride];
        net.error_vjp_panel_into(&plan, &tape, &theta, &mut panel, &mut out, stride);
        for (c, g) in gy.iter().enumerate() {
            let mut single = g.clone();
            let mut grad = vec![0.0; n_err];
            net.error_vjp_into(&plan, &tape, &theta, &mut single, &mut grad);
            prop_assert_eq!(field_bits(&column(&panel, c)), field_bits(&single), "column {}", c);
            let got: Vec<f64> = (0..n_err).map(|k| out[k * stride + c]).collect();
            prop_assert_eq!(bits(got), bits(grad), "error gradient {}", c);
        }
        for k in 0..n_err {
            for v in &out[k * stride + q..(k + 1) * stride] {
                prop_assert_eq!(v.to_bits(), sentinel.to_bits(), "padding of error {}", k);
            }
        }
    }

    /// Fisher products keep the bits of one JVP and one VJP per direction
    /// and input, summed over inputs along the pool's reduction tree.
    #[test]
    fn fisher_products_match_per_direction_walks(
        dim in 2usize..7,
        kinds in (0usize..3, 0usize..3),
        eo in any::<bool>(),
        q in 1usize..18,
        inputs in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (net, theta) = network(dim, kinds, dim, eo, &mut rng);
        let n = net.param_count();
        let plan = net.gate_plan(&theta);
        let xs: Vec<CVector> = (0..inputs).map(|_| normal_cvector(dim, &mut rng)).collect();
        let dirs: Vec<RVector> = (0..q).map(|_| normal_rvector(n, &mut rng)).collect();
        let per_input: Vec<Vec<RVector>> = xs
            .iter()
            .map(|x| {
                let tape = tape_of(&net, &theta, x);
                dirs.iter()
                    .map(|v| {
                        let mut state = CVector::zeros(dim);
                        net.jvp_into(&plan, &tape, &theta, v, &mut state);
                        let mut grad = RVector::zeros(n);
                        net.vjp_into(&plan, &tape, &theta, &mut state, grad.as_mut_slice());
                        grad
                    })
                    .collect()
            })
            .collect();
        let summed = tree_reduce(per_input, &|mut a: Vec<RVector>, b: Vec<RVector>| {
            for (ga, gb) in a.iter_mut().zip(&b) {
                *ga += gb;
            }
            a
        })
        .unwrap();
        let scale = 1.0 / inputs as f64;
        for threads in [1, 3] {
            let fv = fisher_vector_products(&net, &theta, &xs, &dirs, &ExecPool::new(threads));
            for (got, want) in fv.iter().zip(&summed) {
                prop_assert_eq!(bits(got.iter().copied()), bits(want.scale(scale).iter().copied()));
            }
        }
    }
}
