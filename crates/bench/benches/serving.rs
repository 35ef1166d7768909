//! Serving-path macro benchmark: the discrete-event simulator's
//! {poisson, bursty} × {uncoalesced, coalesced} grid, plus a wall-clock
//! measurement of the real pinned serving path that keeps the simulator's
//! cost model honest.
//!
//! The simulated arms answer the capacity question (saturation throughput
//! and tail latency under open-loop overload, in *virtual* time — bitwise
//! replayable, host-independent). The measured arm times
//! `FabricatedChip::serve_pinned_batch_into` at batch 1 vs batch 16 on the
//! 8x8 mesh the cost model's hand-set constants stand for, so the
//! per-call-cost-amortization claim is checked against real hardware every
//! time this bench runs. Results land in `BENCH_serving.json` at the
//! workspace root; ci.sh gates coalesced ≥ uncoalesced.

use criterion::Criterion;
use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_bench::report::{
    host_parallelism, json_fixed, json_object, json_rows, json_str, write_bench_json,
};
use photon_farm::{CoalescePolicy, HedgePolicy};
use photon_faults::ReplicaChaos;
use photon_linalg::CVector;
use photon_photonics::{Architecture, BatchScratch, ErrorModel, FabricatedChip};
use photon_sim::{
    run, ArrivalProcess, CostModel, ReplicaSpec, ResilientConfig, ServingReport, SimConfig,
    TenantLoad,
};

const DIM: usize = 8;
const ROOT_SEED: u64 = 8080;
/// Virtual arrival window: 50 ms of open-loop traffic.
const WINDOW_NS: u64 = 50_000_000;
const WORKERS: usize = 2;
const QUEUE_CAP: usize = 512;
const MAX_BATCH: usize = 16;
const MAX_WAIT_NS: u64 = 100_000;

const WORKLOADS: [(&str, ArrivalProcess); 2] = [
    // Rates are chosen to overdrive the uncoalesced capacity (~130k rps
    // per worker at the calibrated model) hard enough that the coalesced
    // arm is also measured at saturation, not arrival-limited.
    (
        "poisson",
        ArrivalProcess::Poisson {
            rate_hz: 1_000_000.0,
        },
    ),
    (
        "bursty",
        ArrivalProcess::Bursty {
            on_rate_hz: 800_000.0,
            off_rate_hz: 20_000.0,
            mean_on_ns: 5_000_000.0,
            mean_off_ns: 5_000_000.0,
        },
    ),
];

fn simulate(workload: ArrivalProcess, name: &str, coalesced: bool) -> ServingReport {
    let policy = if coalesced {
        CoalescePolicy::new(MAX_BATCH, MAX_WAIT_NS)
    } else {
        CoalescePolicy::uncoalesced()
    };
    let mode = if coalesced {
        "coalesced"
    } else {
        "uncoalesced"
    };
    let cfg = SimConfig::new(ROOT_SEED, WINDOW_NS)
        .with_label(&format!("{name}/{mode}"))
        .with_workers(WORKERS)
        .with_coalescer(policy)
        .with_tenant(TenantLoad::new(name, workload).with_queue_cap(QUEUE_CAP));
    run(&cfg)
}

/// The resilience grid: the same three-replica chaos scenario the e2e
/// tests run (one replica killed at 5 ms, one hung 4–8 ms), simulated as
/// healthy baseline, resilient arm (breakers + hedging + brownout +
/// deadlines), and no-resilience control. Virtual time only.
fn simulate_resilience(arm: &str) -> ServingReport {
    let faulty = arm != "healthy-baseline";
    let beta_chaos = if faulty {
        ReplicaChaos::none().kill_at(5_000_000)
    } else {
        ReplicaChaos::none()
    };
    let gamma_chaos = if faulty {
        ReplicaChaos::none().hang_between(4_000_000, 8_000_000)
    } else {
        ReplicaChaos::none()
    };
    let cfg = ResilientConfig::new(ROOT_SEED, 20_000_000)
        .with_label(arm)
        .with_replica(ReplicaSpec::clean("alpha"))
        .with_replica(ReplicaSpec::clean("beta").with_chaos(beta_chaos))
        .with_replica(ReplicaSpec::clean("gamma").with_chaos(gamma_chaos))
        .with_tenant(TenantLoad::new(
            "steady",
            ArrivalProcess::Poisson { rate_hz: 60_000.0 },
        ))
        .with_tenant(TenantLoad::new(
            "bursty",
            ArrivalProcess::Bursty {
                on_rate_hz: 120_000.0,
                off_rate_hz: 10_000.0,
                mean_on_ns: 3_000_000.0,
                mean_off_ns: 4_000_000.0,
            },
        ))
        .with_coalescer(CoalescePolicy::new(MAX_BATCH, MAX_WAIT_NS))
        .with_default_deadline_ns(2_000_000)
        .with_hedge(Some(HedgePolicy {
            quantile: 0.5,
            min_delay_ns: 50_000,
            window: 256,
            min_samples: 16,
        }));
    if arm == "control-faults" {
        run(&cfg.without_resilience())
    } else {
        run(&cfg)
    }
}

/// Wall-clock ground truth for the cost model: the real pinned serving
/// path at batch 1 vs batch 16 (same mesh size the model was calibrated
/// on). Wall time is allowed *here* — never inside `crates/sim`.
fn bench_real_serving(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let arch = Architecture::single_mesh(DIM, DIM).unwrap();
    let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
    let theta = chip.init_params(&mut rng);
    chip.pin_compile_base(&theta);
    let xs: Vec<CVector> = (0..MAX_BATCH)
        .map(|_| photon_linalg::random::normal_cvector(DIM, &mut rng))
        .collect();
    let refs: Vec<&CVector> = xs.iter().collect();

    let mut group = c.benchmark_group("serving");
    group.sample_size(20);
    group.bench_function("serve-b1", |b| {
        let mut scratch = BatchScratch::new();
        b.iter(|| {
            let out = chip
                .serve_pinned_batch_into(&refs[..1], &mut scratch)
                .unwrap();
            out[0].iter().map(|z| z.norm_sqr()).sum::<f64>()
        })
    });
    group.bench_function("serve-b16", |b| {
        let mut scratch = BatchScratch::new();
        b.iter(|| {
            let out = chip.serve_pinned_batch_into(&refs, &mut scratch).unwrap();
            out.iter()
                .map(|y| y.iter().map(|z| z.norm_sqr()).sum::<f64>())
                .sum::<f64>()
        })
    });
    group.finish();
}

fn write_report(c: &Criterion) -> std::io::Result<()> {
    // BENCH_parallel honesty convention: every row names the kernel tier
    // and the host's available parallelism.
    let host = [
        ("kernel", json_str(photon_linalg::kernel_tier().name())),
        ("host_available_parallelism", host_parallelism().to_string()),
    ];

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for (name, workload) in WORKLOADS {
        let un = simulate(workload, name, false);
        let co = simulate(workload, name, true);
        for report in [&un, &co] {
            let mode = if report.max_batch > 1 {
                "coalesced"
            } else {
                "uncoalesced"
            };
            let agg = &report.aggregate;
            let mut row = vec![
                ("workload", json_str(name)),
                ("mode", json_str(mode)),
                ("throughput_rps", json_fixed(agg.throughput_rps, 1)),
                ("p50_ns", json_fixed(agg.p50_ns, 1)),
                ("p99_ns", json_fixed(agg.p99_ns, 1)),
                ("p999_ns", json_fixed(agg.p999_ns, 1)),
                ("arrivals", agg.arrivals.to_string()),
                ("completed", agg.completed.to_string()),
                ("shed", agg.shed.to_string()),
                ("mean_batch", json_fixed(report.mean_batch, 3)),
                ("peak_queue_depth", agg.peak_queue_depth.to_string()),
            ];
            row.extend(host.iter().cloned());
            rows.push(json_object(&row));
        }
        speedups.push((
            name,
            json_fixed(co.aggregate.throughput_rps / un.aggregate.throughput_rps, 3),
        ));
    }

    // The resilience grid: healthy baseline vs resilient arm vs control
    // under the scripted kill + hang (same scenario as the chaos tests).
    let healthy = simulate_resilience("healthy-baseline");
    let resilient = simulate_resilience("resilient-faults");
    let control = simulate_resilience("control-faults");
    let mut resilience_rows = Vec::new();
    for report in [&healthy, &resilient, &control] {
        let agg = &report.aggregate;
        let breaker_opens = report
            .replicas
            .iter()
            .flat_map(|r| &r.breaker_transitions)
            .filter(|t| t.to == photon_farm::BreakerState::Open)
            .count();
        let mut row = vec![
            ("arm", json_str(&report.label)),
            ("arrivals", agg.arrivals.to_string()),
            ("completed", agg.completed.to_string()),
            ("shed", agg.shed.to_string()),
            ("expired", agg.expired.to_string()),
            ("lost", report.lost().to_string()),
            ("p50_ns", json_fixed(agg.p50_ns, 1)),
            ("p99_ns", json_fixed(agg.p99_ns, 1)),
            ("p999_ns", json_fixed(agg.p999_ns, 1)),
            ("throughput_rps", json_fixed(agg.throughput_rps, 1)),
            ("hedges_fired", report.hedges_fired.to_string()),
            ("hedge_wins", report.hedge_wins.to_string()),
            ("duplicates", report.duplicates.to_string()),
            ("breaker_opens", breaker_opens.to_string()),
            (
                "tier_downshifts",
                report
                    .replicas
                    .iter()
                    .map(|r| r.tier_transitions)
                    .sum::<u64>()
                    .to_string(),
            ),
        ];
        row.extend(host.iter().cloned());
        resilience_rows.push(json_object(&row));
    }
    let resilience_summary = json_object(&[
        (
            "p99_vs_healthy",
            json_fixed(
                resilient.aggregate.p99_ns / healthy.aggregate.p99_ns.max(1.0),
                3,
            ),
        ),
        ("bound", "2.0".to_string()),
        (
            "bound_held",
            (resilient.aggregate.p99_ns <= 2.0 * healthy.aggregate.p99_ns).to_string(),
        ),
        ("resilient_lost", resilient.lost().to_string()),
        ("control_lost", control.lost().to_string()),
        (
            "sheds_less_than_control",
            (resilient.lost() < control.lost()).to_string(),
        ),
    ]);

    // Measured wall-clock check of the amortization claim.
    let find = |arm: &str| {
        let id = format!("serving/{arm}");
        c.measurements().iter().find(move |m| m.id == id)
    };
    let measured = match (find("serve-b1"), find("serve-b16")) {
        (Some(b1), Some(b16)) => {
            let per_req_b1 = b1.mean.as_nanos() as f64;
            let per_req_b16 = b16.mean.as_nanos() as f64 / MAX_BATCH as f64;
            json_object(&[
                ("serve_b1_ns", b1.mean.as_nanos().to_string()),
                ("serve_b16_ns", b16.mean.as_nanos().to_string()),
                (
                    "measured_per_request_amortization",
                    json_fixed(per_req_b1 / per_req_b16.max(1.0), 3),
                ),
            ])
        }
        _ => "null".to_string(),
    };

    let cost = CostModel::calibrated_8x8();
    write_bench_json(
        "BENCH_serving.json",
        "serving_sim",
        &[
            ("mesh", json_str(&format!("{DIM}x{DIM} Clements"))),
            ("root_seed", ROOT_SEED.to_string()),
            ("window_ns", WINDOW_NS.to_string()),
            ("workers", WORKERS.to_string()),
            ("queue_cap", QUEUE_CAP.to_string()),
            (
                "coalescer",
                json_object(&[
                    ("max_batch", MAX_BATCH.to_string()),
                    ("max_wait_ns", MAX_WAIT_NS.to_string()),
                ]),
            ),
            (
                "cost_model",
                json_object(&[
                    ("compile_ns", cost.compile_ns.to_string()),
                    ("per_sample_ns", cost.per_sample_ns.to_string()),
                    (
                        "source",
                        json_str(
                            "hand-set stand-ins (CostModel::calibrated_8x8), not fitted to any \
                             measurement; compare the measured block",
                        ),
                    ),
                ]),
            ),
            (
                "note",
                json_str(
                    "simulated arms are open-loop overload in virtual time (bitwise \
                     replayable, host-independent); 'measured' is real wall time of the pinned \
                     serving path at batch 1 vs 16 on this host, sanity-checking the cost \
                     model's per-call amortization",
                ),
            ),
            ("measured", measured),
            ("coalescing_speedup", json_object(&speedups)),
            ("results", json_rows(&rows)),
            (
                "resilience_note",
                json_str(
                    "three replicas behind one endpoint, replica beta killed at 5 ms and gamma \
                     hung 4-8 ms of a 20 ms window; the resilient arm runs circuit breakers + \
                     p50-delay hedged re-dispatch + brownout tier ladder + 2 ms deadlines, the \
                     control arm runs only the dispatch watchdog and deadlines",
                ),
            ),
            ("resilience_summary", resilience_summary),
            ("resilience", json_rows(&resilience_rows)),
        ],
    )
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    bench_real_serving(&mut c);
    if let Err(e) = write_report(&c) {
        eprintln!("serving: failed to write BENCH_serving.json: {e}");
    }
}
