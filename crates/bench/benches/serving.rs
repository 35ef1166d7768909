//! Serving-path macro benchmark: the discrete-event simulator's
//! {poisson, bursty} × {uncoalesced, coalesced} grid, plus a wall-clock
//! measurement of the real pinned serving path that keeps the simulator's
//! cost model honest.
//!
//! The simulated arms answer the capacity question (saturation throughput
//! and tail latency under open-loop overload, in *virtual* time — bitwise
//! replayable, host-independent). The measured arm times
//! `FabricatedChip::serve_pinned_batch_into` at batch 1 vs batch 16 on the
//! same 8x8 mesh the cost model was calibrated on, so the
//! per-call-cost-amortization claim is checked against real hardware every
//! time this bench runs. Results land in `BENCH_serving.json` at the
//! workspace root; ci.sh gates coalesced ≥ uncoalesced.

use std::io::Write as _;

use criterion::Criterion;
use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_farm::{CoalescePolicy, HedgePolicy};
use photon_faults::ReplicaChaos;
use photon_linalg::CVector;
use photon_photonics::{Architecture, BatchScratch, ErrorModel, FabricatedChip};
use photon_sim::{
    run, ArrivalProcess, ReplicaSpec, ResilientConfig, ServingReport, SimConfig, TenantLoad,
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
    let mode = if coalesced { "coalesced" } else { "uncoalesced" };
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
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let kernel = photon_linalg::kernel_tier().name();

    let mut rows = String::new();
    let mut speedups = String::new();
    for (name, workload) in WORKLOADS {
        let un = simulate(workload, name, false);
        let co = simulate(workload, name, true);
        for report in [&un, &co] {
            let mode = if report.max_batch > 1 { "coalesced" } else { "uncoalesced" };
            let agg = &report.aggregate;
            if !rows.is_empty() {
                rows.push_str(",\n");
            }
            // BENCH_parallel honesty convention: every row names the
            // kernel tier and the host's available parallelism.
            rows.push_str(&format!(
                "    {{\"workload\": \"{name}\", \"mode\": \"{mode}\", \
                 \"throughput_rps\": {:.1}, \"p50_ns\": {:.1}, \"p99_ns\": {:.1}, \
                 \"p999_ns\": {:.1}, \"arrivals\": {}, \"completed\": {}, \"shed\": {}, \
                 \"mean_batch\": {:.3}, \"peak_queue_depth\": {}, \
                 \"kernel\": \"{kernel}\", \"host_available_parallelism\": {host_threads}}}",
                agg.throughput_rps,
                agg.p50_ns,
                agg.p99_ns,
                agg.p999_ns,
                agg.arrivals,
                agg.completed,
                agg.shed,
                report.mean_batch,
                agg.peak_queue_depth,
            ));
        }
        if !speedups.is_empty() {
            speedups.push_str(", ");
        }
        speedups.push_str(&format!(
            "\"{name}\": {:.3}",
            co.aggregate.throughput_rps / un.aggregate.throughput_rps
        ));
    }

    // The resilience grid: healthy baseline vs resilient arm vs control
    // under the scripted kill + hang (same scenario as the chaos tests).
    let healthy = simulate_resilience("healthy-baseline");
    let resilient = simulate_resilience("resilient-faults");
    let control = simulate_resilience("control-faults");
    let mut resilience_rows = String::new();
    for report in [&healthy, &resilient, &control] {
        let agg = &report.aggregate;
        if !resilience_rows.is_empty() {
            resilience_rows.push_str(",\n");
        }
        resilience_rows.push_str(&format!(
            "    {{\"arm\": \"{}\", \"arrivals\": {}, \"completed\": {}, \"shed\": {}, \
             \"expired\": {}, \"lost\": {}, \"p50_ns\": {:.1}, \"p99_ns\": {:.1}, \
             \"p999_ns\": {:.1}, \"throughput_rps\": {:.1}, \"hedges_fired\": {}, \
             \"hedge_wins\": {}, \"duplicates\": {}, \"breaker_opens\": {}, \
             \"tier_downshifts\": {}, \"kernel\": \"{kernel}\", \
             \"host_available_parallelism\": {host_threads}}}",
            report.label,
            agg.arrivals,
            agg.completed,
            agg.shed,
            agg.expired,
            report.lost(),
            agg.p50_ns,
            agg.p99_ns,
            agg.p999_ns,
            agg.throughput_rps,
            report.hedges_fired,
            report.hedge_wins,
            report.duplicates,
            report
                .replicas
                .iter()
                .flat_map(|r| &r.breaker_transitions)
                .filter(|t| t.to == photon_farm::BreakerState::Open)
                .count(),
            report.replicas.iter().map(|r| r.tier_transitions).sum::<u64>(),
        ));
    }
    let resilience_summary = format!(
        "{{\"p99_vs_healthy\": {:.3}, \"bound\": 2.0, \"bound_held\": {}, \
         \"resilient_lost\": {}, \"control_lost\": {}, \"sheds_less_than_control\": {}}}",
        resilient.aggregate.p99_ns / healthy.aggregate.p99_ns.max(1.0),
        resilient.aggregate.p99_ns <= 2.0 * healthy.aggregate.p99_ns,
        resilient.lost(),
        control.lost(),
        resilient.lost() < control.lost(),
    );

    // Measured wall-clock check of the amortization claim.
    let find = |arm: &str| {
        let id = format!("serving/{arm}");
        c.measurements().iter().find(move |m| m.id == id)
    };
    let measured = match (find("serve-b1"), find("serve-b16")) {
        (Some(b1), Some(b16)) => {
            let per_req_b1 = b1.mean.as_nanos() as f64;
            let per_req_b16 = b16.mean.as_nanos() as f64 / MAX_BATCH as f64;
            format!(
                "{{\"serve_b1_ns\": {}, \"serve_b16_ns\": {}, \
                 \"measured_per_request_amortization\": {:.3}}}",
                b1.mean.as_nanos(),
                b16.mean.as_nanos(),
                per_req_b1 / per_req_b16.max(1.0)
            )
        }
        _ => "null".to_string(),
    };

    let json = format!(
        "{{\n  \"bench\": \"serving_sim\",\n  \"mesh\": \"{DIM}x{DIM} Clements\",\n  \
         \"root_seed\": {ROOT_SEED},\n  \"window_ns\": {WINDOW_NS},\n  \
         \"workers\": {WORKERS},\n  \"queue_cap\": {QUEUE_CAP},\n  \
         \"coalescer\": {{\"max_batch\": {MAX_BATCH}, \"max_wait_ns\": {MAX_WAIT_NS}}},\n  \
         \"cost_model\": {{\"compile_ns\": 7400, \"per_sample_ns\": 250, \
         \"source\": \"BENCH_gemm.json 8x8 compiled arm (32 probes x 16-sample batches)\"}},\n  \
         \"kernel\": \"{kernel}\",\n  \"host_available_parallelism\": {host_threads},\n  \
         \"note\": \"simulated arms are open-loop overload in virtual time (bitwise \
         replayable, host-independent); 'measured' is real wall time of the pinned \
         serving path at batch 1 vs 16 on this host, sanity-checking the cost model's \
         per-call amortization\",\n  \
         \"measured\": {measured},\n  \
         \"coalescing_speedup\": {{{speedups}}},\n  \
         \"results\": [\n{rows}\n  ],\n  \
         \"resilience_note\": \"three replicas behind one endpoint, replica beta killed \
         at 5 ms and gamma hung 4-8 ms of a 20 ms window; the resilient arm runs circuit \
         breakers + p50-delay hedged re-dispatch + brownout tier ladder + 2 ms deadlines, \
         the control arm runs only the dispatch watchdog and deadlines\",\n  \
         \"resilience_summary\": {resilience_summary},\n  \
         \"resilience\": [\n{resilience_rows}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
    let mut f = std::fs::File::create(path)?;
    f.write_all(json.as_bytes())
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    bench_real_serving(&mut c);
    if let Err(e) = write_report(&c) {
        eprintln!("serving: failed to write BENCH_serving.json: {e}");
    }
}
