//! Criterion kernels: JVP/VJP and Fisher-product costs — the model-side
//! overhead LCNG pays per iteration. The `*_panel` rows walk `Q = K`
//! tangents or cotangents through one tape at once, the shape the Fisher
//! products take per input; beside the one-column `jvp` and `vjp` rows they
//! show what a shared op walk saves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_exec::ExecPool;
use photon_linalg::random::{normal_cvector, normal_rvector};
use photon_photonics::{fisher_vector_products, Architecture, StatePanel};

fn bench_jvp_vjp(c: &mut Criterion) {
    let mut group = c.benchmark_group("autodiff");
    for k in [8usize, 16] {
        let mut rng = StdRng::seed_from_u64(3);
        let net = Architecture::two_mesh_classifier(k, k)
            .unwrap()
            .build_ideal();
        let theta = net.init_params(&mut rng);
        let x = normal_cvector(k, &mut rng);
        let dtheta = normal_rvector(net.param_count(), &mut rng);
        let plan = net.gate_plan(&theta);
        let (_, tape) = net.forward_tape(&x, &theta, &plan);
        let g = normal_cvector(k, &mut rng);
        let zero = photon_linalg::CVector::zeros(k);

        group.bench_with_input(BenchmarkId::new("forward_tape", k), &k, |b, _| {
            b.iter(|| net.forward_tape(std::hint::black_box(&x), &theta, &plan))
        });
        group.bench_with_input(BenchmarkId::new("jvp", k), &k, |b, _| {
            b.iter(|| net.jvp(&plan, &tape, &theta, std::hint::black_box(&zero), &dtheta))
        });
        group.bench_with_input(BenchmarkId::new("vjp", k), &k, |b, _| {
            b.iter(|| net.vjp(&plan, &tape, &theta, std::hint::black_box(&g)))
        });

        // Q = K columns on the one tape: param-major tangents, and the
        // cotangent `g` in every column.
        let (n, q) = (net.param_count(), k);
        let dthetas: Vec<f64> = (0..n * q).map(|i| dtheta[i / q]).collect();
        let mut panel = StatePanel::zeros(k, q);
        let mut grads = vec![0.0; n * q];
        group.bench_with_input(BenchmarkId::new("jvp_panel", k), &k, |b, _| {
            b.iter(|| {
                panel.reset(k, q);
                net.jvp_panel_into(
                    &plan,
                    &tape,
                    &theta,
                    std::hint::black_box(&dthetas),
                    &mut panel,
                );
            })
        });
        group.bench_with_input(BenchmarkId::new("vjp_panel", k), &k, |b, _| {
            b.iter(|| {
                for c in 0..q {
                    panel.set_column(c, std::hint::black_box(&g));
                }
                grads.fill(0.0);
                net.vjp_panel_into(&plan, &tape, &theta, &mut panel, &mut grads);
            })
        });
    }
    group.finish();
}

fn bench_fisher_product(c: &mut Criterion) {
    let mut group = c.benchmark_group("fisher");
    group.sample_size(20);
    for k in [8usize, 16] {
        let mut rng = StdRng::seed_from_u64(4);
        let net = Architecture::two_mesh_classifier(k, k)
            .unwrap()
            .build_ideal();
        let theta = net.init_params(&mut rng);
        let inputs: Vec<_> = (0..4).map(|_| normal_cvector(k, &mut rng)).collect();
        let v = [normal_rvector(net.param_count(), &mut rng)];
        let vs: Vec<_> = (0..k)
            .map(|_| normal_rvector(net.param_count(), &mut rng))
            .collect();
        let pool = ExecPool::serial();
        group.bench_with_input(BenchmarkId::new("fvp_4_inputs", k), &k, |b, _| {
            b.iter(|| {
                fisher_vector_products(&net, &theta, &inputs, std::hint::black_box(&v), &pool)
            })
        });
        group.bench_with_input(BenchmarkId::new("fvp_4_inputs_q_eq_k", k), &k, |b, _| {
            b.iter(|| {
                fisher_vector_products(&net, &theta, &inputs, std::hint::black_box(&vs), &pool)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_jvp_vjp, bench_fisher_product);
criterion_main!(benches);
