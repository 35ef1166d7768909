//! The timing decorator is transparent: training through it ends with the
//! same theta (bitwise), query count and cache counters as training on the
//! bare chip, and it records one span per chip call.

use rand::rngs::StdRng;
use rand::SeedableRng;

use perfbench::chip::{TimedChip, BATCH, PIN};
use perfbench::spans::Recorder;
use photon_core::{
    build_task, ClassificationHead, Method, ModelChoice, TaskInstance, TaskKind, TaskSpec,
    TrainConfig, Trainer,
};
use photon_data::Dataset;
use photon_photonics::{CacheStats, OnnChip};

/// A small image task at width `k`; the same seed builds the same chip.
fn task(k: usize) -> TaskInstance {
    let spec = TaskSpec {
        train_size: 60,
        test_size: 20,
        ..TaskSpec::image(TaskKind::MnistLike, k)
    };
    build_task(&spec, 11).expect("task builds")
}

/// Trains `method` briefly on `chip`; returns the final theta's bits, the
/// chip's query count and its cache counters.
fn train<C: OnnChip>(
    chip: &C,
    train: &Dataset,
    test: &Dataset,
    head: ClassificationHead,
    method: Method,
) -> (Vec<u64>, u64, CacheStats) {
    let mut config = TrainConfig::quick(chip.input_dim());
    config.warm_epochs = 1;
    config.epochs = 2;
    config.batch_size = 20;
    config.threads = Some(2);
    let outcome = Trainer::new(chip, train, test, head)
        .train(method, &config, &mut StdRng::seed_from_u64(12))
        .expect("trains");
    let bits = outcome.theta.iter().map(|v| v.to_bits()).collect();
    (bits, chip.query_count(), chip.cache_stats())
}

fn assert_transparent(k: usize, method: Method) {
    let t = task(k);
    let bare = train(&t.chip, &t.train, &t.test, t.head, method);

    let rec = Recorder::new();
    let t = task(k);
    let chip = TimedChip::new(t.chip, rec.clone());
    let timed = train(&chip, &t.train, &t.test, t.head, method);

    assert_eq!(
        bare.0, timed.0,
        "theta differs through the decorator ({method:?}, K={k})"
    );
    assert_eq!(bare.1, timed.1, "query count differs ({method:?}, K={k})");
    assert_eq!(bare.2, timed.2, "cache counters differ ({method:?}, K={k})");

    let spans = rec.spans();
    let batched: u64 = spans
        .iter()
        .filter(|s| s.name == BATCH)
        .map(|s| s.items)
        .sum();
    assert_eq!(batched, timed.1, "every query went through a timed batch");
    assert!(
        spans.iter().any(|s| s.name == PIN),
        "the trainer pins once per iteration"
    );
}

#[test]
fn zo_coordinate_is_bitwise_identical_through_the_decorator() {
    assert_transparent(10, Method::ZoCoordinate);
    assert_transparent(16, Method::ZoCoordinate);
}

#[test]
fn lcng_is_bitwise_identical_through_the_decorator() {
    let lcng = Method::Lcng {
        model: ModelChoice::Ideal,
    };
    assert_transparent(10, lcng);
    assert_transparent(16, lcng);
}
