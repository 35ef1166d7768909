//! Overhead of the fault-injection layer: how much a `FaultyChip` wrapper
//! costs per forward pass relative to the bare chip, with and without the
//! robust measurement ladder on top.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_exec::ExecPool;
use photon_faults::{DriftConfig, FaultPlan, FaultyChip, TransientConfig};
use photon_linalg::random::normal_cvector;
use photon_linalg::RVector;
use photon_opt::{estimate_gradient, Perturbation, RobustEval, ZoSettings};
use photon_photonics::{Architecture, ErrorModel, FabricatedChip, OnnChip};

const DIM: usize = 8;

fn setup() -> (FabricatedChip, RVector) {
    let mut rng = StdRng::seed_from_u64(21);
    let arch = Architecture::single_mesh(DIM, DIM).unwrap();
    let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
    let theta = chip.init_params(&mut rng);
    (chip, theta)
}

fn plan() -> FaultPlan {
    FaultPlan::new(42)
        .with_drift(DriftConfig {
            sigma: 0.02,
            tau: 25.0,
        })
        .with_transients(TransientConfig {
            drop_prob: 0.001,
            spike_prob: 0.005,
            spike_scale: 1e3,
            burst_prob: 0.01,
            burst_sigma: 0.05,
        })
}

fn bench_forward_overhead(c: &mut Criterion) {
    let (chip, theta) = setup();
    let mut rng = StdRng::seed_from_u64(22);
    let x = normal_cvector(DIM, &mut rng);

    let mut group = c.benchmark_group("fault_forward");
    group.bench_function("bare_chip", |b| {
        b.iter(|| chip.forward_powers(std::hint::black_box(&x), std::hint::black_box(&theta)))
    });
    let (chip, theta) = setup();
    let faulty = FaultyChip::new(chip, plan());
    faulty.advance_to(1);
    group.bench_function("faulty_chip", |b| {
        b.iter(|| faulty.forward_powers(std::hint::black_box(&x), std::hint::black_box(&theta)))
    });
    group.finish();
}

fn bench_robust_estimate_overhead(c: &mut Criterion) {
    let (chip, theta) = setup();
    let faulty = FaultyChip::new(chip, plan());
    faulty.advance_to(1);
    let mut rng = StdRng::seed_from_u64(23);
    let x = normal_cvector(DIM, &mut rng);
    let loss = |t: &RVector| {
        let p = faulty.forward_powers(&x, t);
        p.iter().sum::<f64>()
    };
    let zo = ZoSettings::for_dimension(theta.len(), 16);
    let pool = ExecPool::serial();

    let mut group = c.benchmark_group("fault_estimate");
    group.sample_size(20);
    group.bench_function("plain_zo", |b| {
        let mut rng = StdRng::seed_from_u64(24);
        let base = loss(&theta);
        b.iter(|| {
            estimate_gradient(
                &loss,
                &theta,
                base,
                &zo,
                &Perturbation::Gaussian,
                None,
                &pool,
                &mut rng,
            )
        })
    });
    group.bench_function("robust_zo", |b| {
        let mut rng = StdRng::seed_from_u64(24);
        let base = loss(&theta);
        let robust = RobustEval::standard();
        b.iter(|| {
            estimate_gradient(
                &loss,
                &theta,
                base,
                &zo,
                &Perturbation::Gaussian,
                Some(&robust),
                &pool,
                &mut rng,
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_forward_overhead,
    bench_robust_estimate_overhead
);
criterion_main!(benches);
