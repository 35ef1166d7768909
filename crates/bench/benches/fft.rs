//! Criterion kernels: DFT feature-extraction throughput (the data
//! front-end of every training run).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_data::{dft, dft_features, dft_naive, images_to_dataset, Image, SyntheticMnist};
use photon_linalg::random::normal_cvector;

fn bench_dft(c: &mut Criterion) {
    let mut group = c.benchmark_group("dft");
    let mut rng = StdRng::seed_from_u64(13);
    for n in [256usize, 784, 1024] {
        let x = normal_cvector(n, &mut rng);
        group.bench_with_input(BenchmarkId::new("fast", n), &n, |b, _| {
            b.iter(|| dft(std::hint::black_box(&x)))
        });
    }
    // The naive baseline at the image length, for the speedup headline.
    let x = normal_cvector(784, &mut rng);
    group.sample_size(10);
    group.bench_function("naive_784", |b| {
        b.iter(|| dft_naive(std::hint::black_box(&x)))
    });
    group.finish();
}

fn bench_feature_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("features");
    let mut rng = StdRng::seed_from_u64(14);
    let img: Image = SyntheticMnist::new().render(5, &mut rng);
    for k in [16usize, 64] {
        group.bench_with_input(BenchmarkId::new("image_to_features", k), &k, |b, _| {
            b.iter(|| dft_features(std::hint::black_box(&img), k))
        });
    }
    // A task build's feature pass: the 900 images of a Table-1 task at
    // K = 16, through one call.
    let images = SyntheticMnist::new().generate(900, &mut rng);
    group.sample_size(10);
    group.bench_function("images_to_dataset", |b| {
        b.iter(|| images_to_dataset(std::hint::black_box(&images), 16, 10))
    });
    group.finish();
}

criterion_group!(benches, bench_dft, bench_feature_pipeline);
criterion_main!(benches);
