//! Criterion kernels: per-iteration cost of the compared optimizers on a
//! shared synthetic chip loss.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_exec::ExecPool;
use photon_linalg::random::normal_cvector;
use photon_opt::{
    estimate_gradient, lcng_direction, CmaEs, LcngSettings, MetricSource, Perturbation, ZoSettings,
};
use photon_photonics::{Architecture, ErrorModel, FabricatedChip};

fn chip_setup(
    k: usize,
) -> (
    FabricatedChip,
    photon_linalg::RVector,
    photon_linalg::CVector,
) {
    let mut rng = StdRng::seed_from_u64(5);
    let arch = Architecture::single_mesh(k, k).unwrap();
    let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
    let theta = chip.init_params(&mut rng);
    let x = normal_cvector(k, &mut rng);
    (chip, theta, x)
}

fn bench_zo_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("zo_step");
    group.sample_size(20);
    for k in [8usize, 16] {
        let (chip, theta, x) = chip_setup(k);
        let target = {
            let mut rng = StdRng::seed_from_u64(6);
            normal_cvector(k, &mut rng)
        };
        let zo = ZoSettings::for_dimension(theta.len(), k);
        group.bench_with_input(BenchmarkId::new("vanilla_q_eq_k", k), &k, |b, _| {
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| {
                let loss = |t: &photon_linalg::RVector| (&chip.forward(&x, t) - &target).norm_sqr();
                let base = loss(&theta);
                estimate_gradient(
                    &loss,
                    &theta,
                    base,
                    &zo,
                    &Perturbation::Gaussian,
                    None,
                    &ExecPool::serial(),
                    &mut rng,
                )
            })
        });
    }
    group.finish();
}

fn bench_lcng_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("lcng_step");
    group.sample_size(20);
    for k in [8usize, 16] {
        let (chip, theta, x) = chip_setup(k);
        let model = chip.oracle_network();
        let target = {
            let mut rng = StdRng::seed_from_u64(8);
            normal_cvector(k, &mut rng)
        };
        let settings = LcngSettings::for_dimension(theta.len(), k);
        let inputs = vec![x.clone()];
        group.bench_with_input(BenchmarkId::new("model_metric_q_eq_k", k), &k, |b, _| {
            let mut rng = StdRng::seed_from_u64(9);
            b.iter(|| {
                let loss = |t: &photon_linalg::RVector| (&chip.forward(&x, t) - &target).norm_sqr();
                let base = loss(&theta);
                lcng_direction(
                    &loss,
                    &theta,
                    base,
                    &settings,
                    &Perturbation::Gaussian,
                    &MetricSource::Model {
                        model: &model,
                        inputs: &inputs,
                    },
                    None,
                    &ExecPool::serial(),
                    &mut rng,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_cma_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("cma_generation");
    group.sample_size(10);
    for n in [64usize, 256] {
        group.bench_with_input(BenchmarkId::new("ask_tell_sphere", n), &n, |b, _| {
            let mut rng = StdRng::seed_from_u64(10);
            let mut es = CmaEs::new(&photon_linalg::RVector::ones(n), 0.5);
            b.iter(|| {
                let xs = es.ask(&mut rng);
                let losses: Vec<f64> = xs.iter().map(|v| v.norm_sqr()).collect();
                es.tell(&xs, &losses).unwrap();
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_zo_step,
    bench_lcng_step,
    bench_cma_generation
);
criterion_main!(benches);
