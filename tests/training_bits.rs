//! Bit pins of stage-2 training: the outputs of a fine-tune run for every
//! method family, through the non-durable driver (`Trainer::train`), the
//! durable one sliced by an epoch budget (`train_durable`, then `resume`
//! until the run completes), the self-healing run of a faulty chip
//! (rollbacks and recalibrations) and the experiment harness
//! (`run_method`). Most pins run the quick cluster task, whose single mesh
//! compiles to one linear stage; the ZO-co and LCNG pins on the two-mesh
//! image task also reach a pointwise and a second linear stage through the
//! trainer, and send LCNG's Fisher products through the modReLU.
//!
//! Each test hashes the exact bits of θ, the per-epoch train losses and
//! evaluations, the training-query counts, the per-category query ledger,
//! the recovery stats and events, and the run's trace events (wall-clock
//! fields and the kernel name cleared, pool and cache counters left out),
//! plus every journal file of a durable run. A refactor of the trainer
//! that moves any bit, reorders a chip query or changes a journal byte
//! fails here. The constants were recorded by printing the digests from
//! these test bodies; to re-record after a deliberate change, print them
//! again.

use std::fmt;
use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_zo::core::{
    build_task, run_method, DurableOptions, Method, ModelChoice, RecoveryPolicy, RunOutcome,
    TaskInstance, TaskKind, TaskSpec, TrainConfig, TrainOutcome, Trainer,
};
use photon_zo::faults::{DriftConfig, FaultPlan, FaultyChip, StuckShifter, TransientConfig};
use photon_zo::trace::{LedgerCounts, MemorySink, TraceEvent, TraceHandle};

const TASK_SEED: u64 = 21;
const TRAIN_SEED: u64 = 22;
const ROOT_SEED: u64 = 23;

/// FNV-1a over `bytes`.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a over the bit patterns of `values` (the helper of the other bit
/// pins).
fn bits_hash(values: impl IntoIterator<Item = f64>) -> u64 {
    fnv(values.into_iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

fn count_hash(values: impl IntoIterator<Item = u64>) -> u64 {
    fnv(values.into_iter().flat_map(u64::to_le_bytes))
}

/// The digests of one run (or of several runs, concatenated in order).
#[derive(PartialEq, Eq)]
struct Pins {
    theta: u64,
    losses: u64,
    queries: u64,
    ledger: u64,
    recovery: u64,
    trace: u64,
}

impl fmt::Debug for Pins {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Pins {{ theta: {:#018x}, losses: {:#018x}, queries: {:#018x}, ledger: {:#018x}, \
             recovery: {:#018x}, trace: {:#018x} }}",
            self.theta, self.losses, self.queries, self.ledger, self.recovery, self.trace
        )
    }
}

/// Digests `outcomes` and the trace events they emitted into `sink`.
fn pins(outcomes: &[&TrainOutcome], sink: &MemorySink) -> Pins {
    let events = sink.events();
    let mut ledger = LedgerCounts::new();
    for event in &events {
        if let TraceEvent::QueryLedger {
            category, queries, ..
        } = event
        {
            ledger.add(*category, *queries);
        }
    }
    let trace: String = events
        .into_iter()
        .filter_map(|mut event| {
            match &mut event {
                TraceEvent::EpochSpan { wall_secs, .. } | TraceEvent::RunEnd { wall_secs, .. } => {
                    *wall_secs = 0.0
                }
                TraceEvent::RunStart { kernel, .. } => kernel.clear(),
                TraceEvent::CacheStats { .. } | TraceEvent::PoolStats { .. } => return None,
                _ => {}
            }
            Some(format!("{event:?}\n"))
        })
        .collect();
    let eval_bits = |e: &photon_zo::core::Evaluation| [e.accuracy, e.loss, e.samples as f64];
    Pins {
        theta: bits_hash(outcomes.iter().flat_map(|o| o.theta.iter().copied())),
        losses: bits_hash(outcomes.iter().flat_map(|o| {
            o.history
                .iter()
                .flat_map(|h| {
                    std::iter::once(h.train_loss).chain(h.test.iter().flat_map(eval_bits))
                })
                .chain(eval_bits(&o.final_eval))
        })),
        queries: count_hash(outcomes.iter().flat_map(|o| {
            o.history
                .iter()
                .map(|h| h.training_queries)
                .chain([o.training_queries])
        })),
        ledger: count_hash(ledger.iter().map(|(_, n)| n)),
        recovery: fnv(outcomes
            .iter()
            .flat_map(|o| format!("{:?} {:?}\n", o.recovery, o.recovery_events).into_bytes())),
        trace: fnv(trace.into_bytes()),
    }
}

fn config(trace: TraceHandle) -> TrainConfig {
    let mut config = TrainConfig::quick(4);
    config.eval_every = 2;
    config.trace = trace;
    config
}

/// The two-mesh image task, `Clements + PSdiag + modReLU + Clements +
/// PSdiag` at K = 10: its compiled plan runs a linear, a pointwise and a
/// second linear stage.
fn image_spec() -> TaskSpec {
    TaskSpec {
        train_size: 120,
        test_size: 60,
        ..TaskSpec::image(TaskKind::MnistLike, 10)
    }
}

/// Three iterations per epoch of 24 coordinate probes each, so the nine
/// stage-2 iterations sweep every one of the task's 210 phases and biases,
/// the later stages' included.
fn image_config(trace: TraceHandle) -> TrainConfig {
    let mut config = TrainConfig::quick(10);
    config.warm_epochs = 2;
    config.epochs = 3;
    config.batch_size = 40;
    config.q = 24;
    config.eval_every = 2;
    config.trace = trace;
    config
}

/// One non-durable `train` of `method` on `spec`'s task, with the oracle
/// network attached as the calibrated model.
fn train_on(spec: &TaskSpec, method: Method, config: TrainConfig, sink: &MemorySink) -> Pins {
    train_task(&build_task(spec, TASK_SEED).unwrap(), method, config, sink)
}

/// [`train_on`] a task already built, whose chip may have trained before.
fn train_task(task: &TaskInstance, method: Method, config: TrainConfig, sink: &MemorySink) -> Pins {
    let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head)
        .with_calibrated_model(task.chip.oracle_network());
    let mut rng = StdRng::seed_from_u64(TRAIN_SEED);
    let out = trainer.train(method, &config, &mut rng).unwrap();
    pins(&[&out], sink)
}

/// [`train_on`] the quick task.
fn train_pins(method: Method) -> Pins {
    let (trace, sink) = TraceHandle::memory(0);
    train_on(&TaskSpec::quick(4), method, config(trace), &sink)
}

/// One durable run of `method` on `spec`'s task in two-epoch slices:
/// `train_durable`, then `resume` until the run completes. Returns the
/// digests, the hash of the journal file and the number of slices.
fn durable_on(
    spec: &TaskSpec,
    method: Method,
    config: &TrainConfig,
    sink: &MemorySink,
    name: &str,
) -> (Pins, u64, usize) {
    let task = build_task(spec, TASK_SEED).unwrap();
    let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head);
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "photon-training-bits-{}-{name}",
        std::process::id()
    ));
    let path = dir.join("run.journal");
    let opts = DurableOptions::new(&path, ROOT_SEED).with_epoch_budget(2);
    let mut outcome = trainer.train_durable(method, config, &opts).unwrap();
    let mut slices = 1;
    let out = loop {
        match outcome {
            RunOutcome::Completed(out) => break out,
            RunOutcome::Aborted { resumable, .. } => {
                assert!(resumable);
                outcome = trainer.resume(config, &opts).unwrap();
                slices += 1;
            }
        }
    };
    let journal = fnv(std::fs::read(&path).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
    (pins(&[&out], sink), journal, slices)
}

/// [`durable_on`] the quick task: five epochs in three slices.
fn durable_pins(method: Method, name: &str) -> (Pins, u64) {
    let (trace, sink) = TraceHandle::memory(0);
    let (pins, journal, slices) =
        durable_on(&TaskSpec::quick(4), method, &config(trace), &sink, name);
    assert_eq!(slices, 3, "five epochs in two-epoch slices");
    (pins, journal)
}

#[test]
fn zo_gaussian_train_is_bit_pinned() {
    assert_eq!(
        train_pins(Method::ZoGaussian),
        Pins {
            theta: 0xa31733d7315e565d,
            losses: 0x7db66d17cef29f3d,
            queries: 0xd8d221def67b4045,
            ledger: 0x6f86b928e48b01f3,
            recovery: 0xcc3f8cd8cb97dd66,
            trace: 0x01f29e2eb4548b1f
        }
    );
}

#[test]
fn zo_coordinate_train_is_bit_pinned() {
    assert_eq!(
        train_pins(Method::ZoCoordinate),
        Pins {
            theta: 0x4fa884b275f51b10,
            losses: 0x9f41f340c85d1122,
            queries: 0xd8d221def67b4045,
            ledger: 0x6f86b928e48b01f3,
            recovery: 0xcc3f8cd8cb97dd66,
            trace: 0x23b43f700bf45a20
        }
    );
}

#[test]
fn zo_shaped_train_is_bit_pinned() {
    let method = Method::ZoShaped {
        model: ModelChoice::Ideal,
    };
    assert_eq!(
        train_pins(method),
        Pins {
            theta: 0xdde41baef1fbe7b4,
            losses: 0xf5e07aa6869dbddf,
            queries: 0xd8d221def67b4045,
            ledger: 0x6f86b928e48b01f3,
            recovery: 0xcc3f8cd8cb97dd66,
            trace: 0x9196a6ba7254429e
        }
    );
}

#[test]
fn zo_ng_train_is_bit_pinned() {
    let method = Method::ZoNg {
        model: ModelChoice::Ideal,
    };
    assert_eq!(
        train_pins(method),
        Pins {
            theta: 0x3c7a183d640b7e44,
            losses: 0xab6c69cb9df27035,
            queries: 0xd8d221def67b4045,
            ledger: 0x6f86b928e48b01f3,
            recovery: 0xcc3f8cd8cb97dd66,
            trace: 0x846bab6e179eb787
        }
    );
}

#[test]
fn zo_lc_train_is_bit_pinned() {
    assert_eq!(
        train_pins(Method::ZoLc),
        Pins {
            theta: 0x60eb4c0ba6b98212,
            losses: 0xa6a4c16a61fc6ce3,
            queries: 0xd8d221def67b4045,
            ledger: 0x6f86b928e48b01f3,
            recovery: 0xcc3f8cd8cb97dd66,
            trace: 0xd3ae7a26d65f33a9
        }
    );
}

#[test]
fn lcng_calibrated_train_is_bit_pinned() {
    let method = Method::Lcng {
        model: ModelChoice::Calibrated,
    };
    assert_eq!(
        train_pins(method),
        Pins {
            theta: 0x9cc3453b038e4c14,
            losses: 0xd52163653123af8e,
            queries: 0xd8d221def67b4045,
            ledger: 0x6f86b928e48b01f3,
            recovery: 0xcc3f8cd8cb97dd66,
            trace: 0x1b58712e82931f7f
        }
    );
}

#[test]
fn cma_train_is_bit_pinned() {
    assert_eq!(
        train_pins(Method::Cma { sigma0: 0.1 }),
        Pins {
            theta: 0x01418792a9a184c9,
            losses: 0xe4f1ff9cf178e26b,
            queries: 0xcd35668aa1a9fadf,
            ledger: 0xd558d1db1af10523,
            recovery: 0xcc3f8cd8cb97dd66,
            trace: 0x72be6a47a018da10
        }
    );
}

#[test]
fn bp_ideal_train_is_bit_pinned() {
    assert_eq!(
        train_pins(Method::BpIdeal),
        Pins {
            theta: 0x1061d436d87c9f52,
            losses: 0x2a4fd1c28ece0d76,
            queries: 0xa09d945a1cd8d6e5,
            ledger: 0xf9ad6461b3ba8a15,
            recovery: 0xcc3f8cd8cb97dd66,
            trace: 0x6b432298e6fd08c7
        }
    );
}

#[test]
fn durable_zo_shaped_slices_are_bit_pinned() {
    let method = Method::ZoShaped {
        model: ModelChoice::Ideal,
    };
    let (got, journal) = durable_pins(method, "zo-shaped");
    assert_eq!(journal, 0x8d74dab3c3492ac0);
    assert_eq!(
        got,
        Pins {
            theta: 0x6cf85f547a0c2163,
            losses: 0x2f31e74bf6baf883,
            queries: 0xd8d221def67b4045,
            ledger: 0x6f86b928e48b01f3,
            recovery: 0xcc3f8cd8cb97dd66,
            trace: 0xe2aa3f748d322495
        }
    );
}

#[test]
fn durable_zo_ng_slices_are_bit_pinned() {
    let method = Method::ZoNg {
        model: ModelChoice::Ideal,
    };
    let (got, journal) = durable_pins(method, "zo-ng");
    assert_eq!(journal, 0xe9d3177341c358f);
    assert_eq!(
        got,
        Pins {
            theta: 0xf13ac924cbab8a15,
            losses: 0x1bb8a7498c3f5e6e,
            queries: 0xd8d221def67b4045,
            ledger: 0x6f86b928e48b01f3,
            recovery: 0xcc3f8cd8cb97dd66,
            trace: 0xa749cd0d4114a941
        }
    );
}

#[test]
fn durable_cma_slices_are_bit_pinned() {
    let (got, journal) = durable_pins(Method::Cma { sigma0: 0.1 }, "cma");
    assert_eq!(journal, 0xbfd51b95f5809e6a);
    assert_eq!(
        got,
        Pins {
            theta: 0x47d1cbc3c51cefb0,
            losses: 0x3dbb60ad1e19f5b1,
            queries: 0xcd35668aa1a9fadf,
            ledger: 0xd558d1db1af10523,
            recovery: 0xcc3f8cd8cb97dd66,
            trace: 0xb1e232d6f82f6b63
        }
    );
}

/// fault_injection.rs's self-healing scenario: drift, dropped reads,
/// spikes and a dead shifter under the standard recovery ladder with a
/// 2.5× spike factor, so the run rolls back and recalibrates.
#[test]
fn self_healing_lcng_is_bit_pinned() {
    let task = build_task(&TaskSpec::quick(4), 81).unwrap();
    let model = task.chip.oracle_network();
    let plan = FaultPlan::new(42)
        .with_drift(DriftConfig {
            sigma: 0.04,
            tau: 20.0,
        })
        .with_transients(TransientConfig {
            drop_prob: 0.004,
            spike_prob: 0.01,
            spike_scale: 1e4,
            burst_prob: 0.0,
            burst_sigma: 0.0,
        })
        .with_stuck(StuckShifter {
            index: 3,
            value: 0.4,
        });
    let faulty = FaultyChip::new(task.chip, plan);
    let trainer =
        Trainer::new(&faulty, &task.train, &task.test, task.head).with_calibrated_model(model);
    let (trace, sink) = TraceHandle::memory(0);
    let mut config = TrainConfig::quick(4);
    config.epochs = 6;
    config.threads = Some(1);
    config.recovery = RecoveryPolicy::standard();
    config.recovery.spike_factor = 2.5;
    config.trace = trace;
    let mut rng = StdRng::seed_from_u64(82);
    let out = trainer
        .train(
            Method::Lcng {
                model: ModelChoice::Calibrated,
            },
            &config,
            &mut rng,
        )
        .unwrap();
    assert!(out.recovery.rollbacks >= 1 && out.recovery.recalibrations >= 1);
    assert_eq!(
        pins(&[&out], &sink),
        Pins {
            theta: 0x97760a55dff773fa,
            losses: 0x2f7d7bbe07ca4f58,
            queries: 0x99f48e64fcb1867f,
            ledger: 0xa8abfe89367e76d0,
            recovery: 0x3113607944bf0d72,
            trace: 0x8c6ce15d8d742ac2
        }
    );
}

#[test]
fn run_method_zo_gaussian_is_bit_pinned() {
    let (trace, sink) = TraceHandle::memory(0);
    let mut config = TrainConfig::quick(4);
    config.epochs = 3;
    config.trace = trace;
    let result = run_method(
        &TaskSpec::quick(4),
        Method::ZoGaussian,
        &config,
        2,
        TASK_SEED,
        None,
    )
    .unwrap();
    let outcomes: Vec<&TrainOutcome> = result.outcomes.iter().collect();
    assert_eq!(
        pins(&outcomes, &sink),
        Pins {
            theta: 0xad5614881155b631,
            losses: 0x8a499816edddbdf7,
            queries: 0xd3a14d37ef9143e5,
            ledger: 0x34248a162f9ac23c,
            recovery: 0x97da6c8a99b3e2df,
            trace: 0xe4b30a8614090cd9
        }
    );
}

/// ZO-co on the two-mesh image task through `train`: coordinate probes of
/// the modReLU biases, the second mesh and its PSdiag change only a later
/// stage of the compiled plan.
#[test]
fn two_stage_zo_coordinate_train_is_bit_pinned() {
    let (trace, sink) = TraceHandle::memory(0);
    let got = train_on(
        &image_spec(),
        Method::ZoCoordinate,
        image_config(trace),
        &sink,
    );
    assert_eq!(
        got,
        Pins {
            theta: 0x804f1238244e088f,
            losses: 0x7832a7b186462727,
            queries: 0x0bdebe0105ed0ac9,
            ledger: 0x00cf2b392158e065,
            recovery: 0xcc3f8cd8cb97dd66,
            trace: 0x4c7254f37077ccc6
        }
    );
}

/// Calibrated LCNG on the two-mesh image task through `train`: the Fisher
/// products of its Gram run through both meshes and the modReLU at
/// K = 10, with ten directions, a count that is not a multiple of a
/// vector width.
#[test]
fn two_stage_lcng_train_is_bit_pinned() {
    let (trace, sink) = TraceHandle::memory(0);
    let mut config = image_config(trace);
    config.q = 10;
    let got = train_on(
        &image_spec(),
        Method::Lcng {
            model: ModelChoice::Calibrated,
        },
        config,
        &sink,
    );
    assert_eq!(
        got,
        Pins {
            theta: 0x72430b87495a9280,
            losses: 0xa263841c2606e610,
            queries: 0x7e9539452b79e1c8,
            ledger: 0x6db55bb00bec6a40,
            recovery: 0xcc3f8cd8cb97dd66,
            trace: 0x32694a07f804f876
        }
    );
}

/// Chip state left by one run does not reach the next: run after ZO-co on
/// the same chip, whose last pin and stage-input memo stay installed, LCNG
/// gives a fresh chip's bits.
#[test]
fn lcng_after_zo_coordinate_on_one_chip_matches_a_fresh_chip() {
    let lcng = Method::Lcng {
        model: ModelChoice::Calibrated,
    };
    let lcng_config = |trace| {
        let mut config = image_config(trace);
        config.q = 10;
        config
    };
    let (trace, sink) = TraceHandle::memory(0);
    let fresh = train_on(&image_spec(), lcng, lcng_config(trace), &sink);

    let task = build_task(&image_spec(), TASK_SEED).unwrap();
    let (trace, sink) = TraceHandle::memory(0);
    train_task(&task, Method::ZoCoordinate, image_config(trace), &sink);
    assert!(task.chip.has_pinned_base(), "ZO-co leaves its last pin");
    // The run-end trace event records the chip's absolute query count.
    task.chip.reset_query_count();
    let (trace, sink) = TraceHandle::memory(0);
    let after = train_task(&task, lcng, lcng_config(trace), &sink);
    assert_eq!(after, fresh);
}

/// The same run through `train_durable` with a two-epoch budget, then
/// `resume`; the journal bytes are pinned too.
#[test]
fn two_stage_durable_zo_coordinate_slices_are_bit_pinned() {
    let (trace, sink) = TraceHandle::memory(0);
    let (got, journal, slices) = durable_on(
        &image_spec(),
        Method::ZoCoordinate,
        &image_config(trace),
        &sink,
        "two-stage-zo-co",
    );
    assert_eq!(slices, 2, "three epochs in two-epoch slices");
    assert_eq!(journal, 0xf6c3e7f32be44c98);
    assert_eq!(
        got,
        Pins {
            theta: 0xc5dc80b24bb8f284,
            losses: 0x9af106e0ffaca5fa,
            queries: 0x0bdebe0105ed0ac9,
            ledger: 0x00cf2b392158e065,
            recovery: 0xcc3f8cd8cb97dd66,
            trace: 0xb1da53583526dbb6
        }
    );
}
