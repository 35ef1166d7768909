//! Integration tests for the discrete-event serving simulator: bitwise
//! determinism (across runs and `PHOTON_THREADS` settings), the microbatch
//! coalescing throughput claim, chip-query reconciliation for real-chip
//! runs, and shed accounting under overload.

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_zo::farm::CoalescePolicy;
use photon_zo::photonics::{Architecture, ErrorModel, FabricatedChip};
use photon_zo::sim::{run, run_on_chip, ArrivalProcess, RecalTraffic, SimConfig, TenantLoad};

fn smoke_cfg(seed: u64) -> SimConfig {
    SimConfig::new(seed, 20_000_000)
        .with_label("integration-smoke")
        .with_workers(2)
        .with_tenant(TenantLoad::new(
            "poisson",
            ArrivalProcess::Poisson { rate_hz: 80_000.0 },
        ))
        .with_tenant(TenantLoad::new(
            "bursty",
            ArrivalProcess::Bursty {
                on_rate_hz: 150_000.0,
                off_rate_hz: 10_000.0,
                mean_on_ns: 2_000_000.0,
                mean_off_ns: 3_000_000.0,
            },
        ))
        .with_recalibration(RecalTraffic {
            start_ns: 2_000_000,
            period_ns: 7_000_000,
        })
        .with_coalescer(CoalescePolicy::new(16, 100_000))
}

#[test]
fn report_is_bitwise_deterministic_across_runs_and_thread_settings() {
    let cfg = smoke_cfg(2024);
    let baseline = run(&cfg).to_json();

    // Replay: same config, same bytes.
    assert_eq!(baseline, run(&cfg).to_json());

    // The simulator runs in virtual time and must be oblivious to the
    // worker-pool environment knob the rest of the repo honors.
    for threads in ["1", "2", "7"] {
        std::env::set_var("PHOTON_THREADS", threads);
        assert_eq!(
            baseline,
            run(&cfg).to_json(),
            "PHOTON_THREADS={threads} changed the simulated report"
        );
    }
    std::env::remove_var("PHOTON_THREADS");

    // Text rendering is deterministic too (ci diffs it across runs).
    assert_eq!(run(&cfg).render(), run(&cfg).render());

    // And the seed actually matters.
    assert_ne!(baseline, run(&smoke_cfg(2025)).to_json());
}

#[test]
fn coalescing_doubles_saturation_throughput() {
    // The ISSUE deliverable: on the 8x8-calibrated cost model under
    // open-loop overload, draining microbatches of 16 lifts saturation
    // throughput >= 2x without worsening p99.
    let overload = |coalescer: CoalescePolicy| {
        let cfg = SimConfig::new(77, 50_000_000)
            .with_tenant(
                TenantLoad::new("flood", ArrivalProcess::Poisson { rate_hz: 500_000.0 })
                    .with_queue_cap(512),
            )
            .with_coalescer(coalescer);
        run(&cfg)
    };
    let un = overload(CoalescePolicy::uncoalesced());
    let co = overload(CoalescePolicy::new(16, 100_000));
    assert!(
        co.aggregate.throughput_rps >= 2.0 * un.aggregate.throughput_rps,
        "coalesced {:.0} rps vs uncoalesced {:.0} rps",
        co.aggregate.throughput_rps,
        un.aggregate.throughput_rps
    );
    assert!(
        co.aggregate.p99_ns <= un.aggregate.p99_ns,
        "coalescing must not worsen p99 under overload: {:.0} vs {:.0}",
        co.aggregate.p99_ns,
        un.aggregate.p99_ns
    );
}

#[test]
fn chip_runs_reconcile_query_counts_and_replay_bitwise() {
    let mut rng = StdRng::seed_from_u64(5);
    let arch = Architecture::single_mesh(4, 4).unwrap();
    let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
    let theta = chip.init_params(&mut rng);
    chip.pin_compile_base(&theta);

    let cfg = SimConfig::new(9, 5_000_000)
        .with_label("chip-backed")
        .with_tenant(TenantLoad::new(
            "t",
            ArrivalProcess::Poisson { rate_hz: 40_000.0 },
        ))
        .with_coalescer(CoalescePolicy::new(8, 50_000));

    let before = chip.query_count();
    let report = run_on_chip(&cfg, &chip);
    let spent = chip.query_count() - before;

    // Every simulated completion cost exactly one real chip query.
    assert_eq!(report.chip_queries, Some(report.aggregate.completed));
    assert_eq!(spent, report.aggregate.completed);
    assert!(report.aggregate.completed > 0);

    // The chip-backed run replays bitwise too (chip state is read-only
    // through the pinned path, so a second run sees the same chip).
    assert_eq!(report.to_json(), run_on_chip(&cfg, &chip).to_json());

    // The model-only run of the same config agrees on everything except
    // the chip-query field.
    let model_only = run(&cfg);
    assert_eq!(model_only.chip_queries, None);
    assert_eq!(model_only.aggregate.completed, report.aggregate.completed);
    assert_eq!(model_only.aggregate.p999_ns, report.aggregate.p999_ns);
}

#[test]
#[should_panic(expected = "pinned compile base")]
fn chip_runs_require_a_pinned_base() {
    let mut rng = StdRng::seed_from_u64(6);
    let arch = Architecture::single_mesh(4, 4).unwrap();
    let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
    let cfg = SimConfig::new(1, 1_000_000).with_tenant(TenantLoad::new(
        "t",
        ArrivalProcess::Poisson { rate_hz: 1_000.0 },
    ));
    let _ = run_on_chip(&cfg, &chip);
}

#[test]
fn overload_sheds_are_accounted_per_tenant() {
    let cfg = SimConfig::new(13, 10_000_000)
        .with_tenant(
            TenantLoad::new("flood", ArrivalProcess::Poisson { rate_hz: 600_000.0 })
                .with_queue_cap(32),
        )
        .with_tenant(TenantLoad::new(
            "calm",
            ArrivalProcess::Poisson { rate_hz: 1_000.0 },
        ));
    let report = run(&cfg);
    let flood = &report.tenants[0];
    let calm = &report.tenants[1];
    assert!(flood.shed > 0, "cap-32 queue under 600k rps must shed");
    assert_eq!(flood.arrivals, flood.completed + flood.shed);
    assert_eq!(calm.shed, 0, "the calm tenant's queue never fills");
    assert_eq!(calm.arrivals, calm.completed);
    assert!(flood.peak_queue_depth <= 32);
    assert_eq!(
        report.aggregate.arrivals,
        report.aggregate.completed + report.aggregate.shed
    );
}
