//! Criterion kernels: calibration cost (measurement sweep + Gauss-Newton).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_calib::{calibrate, measure_chip, CalibrationSettings, LmSettings, ProbePlan};
use photon_exec::ExecPool;
use photon_photonics::{Architecture, ErrorModel, FabricatedChip};

fn bench_measurement_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("measure");
    for k in [4usize, 8] {
        let mut rng = StdRng::seed_from_u64(11);
        let arch = Architecture::single_mesh(k, k).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        let plan = ProbePlan::for_chip(&chip, true, 8, 3, &mut rng);
        group.bench_with_input(BenchmarkId::new("probe_sweep", k), &k, |b, _| {
            b.iter(|| measure_chip(&chip, std::hint::black_box(&plan), &ExecPool::serial()))
        });
    }
    group.finish();
}

fn bench_full_calibration(c: &mut Criterion) {
    let mut group = c.benchmark_group("calibrate");
    group.sample_size(10);
    for k in [4usize, 6] {
        group.bench_with_input(BenchmarkId::new("lm_fit", k), &k, |b, _| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(12);
                let arch = Architecture::single_mesh(k, 2).unwrap();
                let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
                let settings = CalibrationSettings {
                    random_inputs: 4,
                    num_settings: 2,
                    lm: LmSettings {
                        max_iters: 3,
                        ..LmSettings::default()
                    },
                    ..CalibrationSettings::default()
                };
                calibrate(&chip, &settings, &mut rng).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_measurement_sweep, bench_full_calibration);
criterion_main!(benches);
