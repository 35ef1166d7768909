//! The serving workload: one scenario pair per operation on an 8×8 chip
//! pinned at set-up — the `serving_sim` example's coalescing configuration
//! through `run_on_chip`, then the `serving_resilience` example's chaos
//! configuration through `run_resilient_on_chip`.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_farm::{BreakerState, CoalescePolicy, HedgePolicy};
use photon_faults::ReplicaChaos;
use photon_photonics::{Architecture, ErrorModel, FabricatedChip};
use photon_sim::{
    run, run_on_chip, run_resilient, run_resilient_on_chip, ArrivalProcess, CostModel,
    RecalTraffic, ReplicaSpec, ResilienceReport, ResilientConfig, ServingReport, SimConfig,
    TenantLoad, TenantServingStats,
};

use crate::spans::{timed, Recorder};

/// Fabricates the 8×8 chip the serving cost model was fitted to and pins
/// it at its deployment parameters.
pub fn deploy(seed: u64) -> FabricatedChip {
    let mut rng = StdRng::seed_from_u64(seed);
    let arch = Architecture::single_mesh(8, 8).expect("8x8 single mesh is valid");
    let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
    let theta = chip.init_params(&mut rng);
    chip.pin_compile_base(&theta);
    chip
}

/// The `serving_sim` example's coalesced arm: two tenants plus periodic
/// recalibration over 25 virtual ms, 2 workers, batches of up to 16.
pub fn coalescing(root_seed: u64) -> SimConfig {
    SimConfig::new(root_seed, 25_000_000)
        .with_label("coalesced-16")
        .with_workers(2)
        .with_coalescer(CoalescePolicy::new(16, 100_000))
        .with_tenant(
            TenantLoad::new("steady", ArrivalProcess::Poisson { rate_hz: 250_000.0 })
                .with_queue_cap(1024),
        )
        .with_tenant(
            TenantLoad::new(
                "bursty",
                ArrivalProcess::Bursty {
                    on_rate_hz: 400_000.0,
                    off_rate_hz: 10_000.0,
                    mean_on_ns: 3_000_000.0,
                    mean_off_ns: 4_000_000.0,
                },
            )
            .with_queue_cap(1024),
        )
        .with_recalibration(RecalTraffic {
            start_ns: 5_000_000,
            period_ns: 10_000_000,
        })
}

/// The `serving_resilience` example's resilient arm: 3 replicas over 20
/// virtual ms, one killed at 5 ms and one hung from 4 to 8 ms, with
/// breakers, hedging, brownout and deadlines.
pub fn resilient(root_seed: u64) -> ResilientConfig {
    ResilientConfig::new(root_seed, 20_000_000)
        .with_label("resilient")
        .with_replica(ReplicaSpec::clean("alpha"))
        .with_replica(
            ReplicaSpec::clean("beta").with_chaos(ReplicaChaos::none().kill_at(5_000_000)),
        )
        .with_replica(
            ReplicaSpec::clean("gamma")
                .with_chaos(ReplicaChaos::none().hang_between(4_000_000, 8_000_000)),
        )
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
        .with_coalescer(CoalescePolicy::new(16, 100_000))
        .with_default_deadline_ns(2_000_000)
        .with_hedge(Some(HedgePolicy {
            quantile: 0.5,
            min_delay_ns: 50_000,
            window: 256,
            min_samples: 16,
        }))
}

/// What one scenario pair produced, and how long the host took.
#[derive(Debug, Clone)]
pub struct PairRun {
    /// The coalescing run's report.
    pub coalesce: ServingReport,
    /// The resilient run's report.
    pub resilient: ResilienceReport,
    /// Host seconds of `run_on_chip`.
    pub coalesce_s: f64,
    /// Host seconds of `run_resilient_on_chip`.
    pub resilient_s: f64,
    /// Chip queries the pair spent.
    pub queries: u64,
}

impl PairRun {
    /// Host seconds of the pair.
    pub fn op_s(&self) -> f64 {
        self.coalesce_s + self.resilient_s
    }

    /// Simulated requests resolved (completed, shed or expired).
    pub fn resolved(&self) -> u64 {
        self.coalesce.aggregate.arrivals + self.resilient.aggregate.arrivals
    }

    /// Whether two runs produced byte-identical reports.
    pub fn same_outputs(&self, other: &PairRun) -> bool {
        self.coalesce.to_json() == other.coalesce.to_json()
            && self.resilient.to_json() == other.resilient.to_json()
            && self.queries == other.queries
    }
}

fn conserves(rows: &[TenantServingStats], aggregate: &TenantServingStats) -> bool {
    rows.iter()
        .chain([aggregate])
        .all(|t| t.arrivals == t.completed + t.shed + t.expired)
}

/// Runs one scenario pair at `root_seed` on the pinned `chip` and checks
/// its reports.
///
/// # Errors
///
/// Returns the reason when a report loses a request or disagrees with the
/// chip's query counter.
pub fn run_pair(
    chip: &FabricatedChip,
    root_seed: u64,
    rec: Option<&Recorder>,
) -> Result<PairRun, String> {
    let q0 = chip.query_count();
    let (coalesce, coalesce_s) = timed(rec, "sim.run_on_chip", || {
        run_on_chip(&coalescing(root_seed), chip)
    });
    let q1 = chip.query_count();
    let (resilient, resilient_s) = timed(rec, "sim.run_resilient_on_chip", || {
        run_resilient_on_chip(&resilient(root_seed), chip)
    });
    let q2 = chip.query_count();

    if !conserves(&coalesce.tenants, &coalesce.aggregate) {
        return Err("coalescing run lost requests".into());
    }
    if !conserves(&resilient.tenants, &resilient.aggregate) {
        return Err("resilient run lost requests".into());
    }
    let completed = coalesce.aggregate.completed;
    if q1 - q0 != completed || coalesce.chip_queries != Some(completed) {
        return Err(format!(
            "coalescing run: chip delta {} vs {completed} completions (report {:?})",
            q1 - q0,
            coalesce.chip_queries
        ));
    }
    let ledger = resilient.eval_queries + resilient.hedge_queries;
    if q2 - q1 != ledger || resilient.chip_queries != Some(ledger) {
        return Err(format!(
            "resilient run: chip delta {} vs eval+hedge {ledger} (report {:?})",
            q2 - q1,
            resilient.chip_queries
        ));
    }
    Ok(PairRun {
        coalesce,
        resilient,
        coalesce_s,
        resilient_s,
        queries: q2 - q0,
    })
}

/// Host seconds of the model-only `run` and `run_resilient` of the pair's
/// configurations — the event loops without the chip. Checks that they
/// simulate the same traffic as the on-chip runs.
///
/// # Errors
///
/// Returns the reason when a model-only report differs from its on-chip
/// twin in anything but the chip query count.
pub fn model_only(pair: &PairRun, rec: &Recorder) -> Result<(f64, f64), String> {
    let seed = pair.coalesce.root_seed;
    let (coalesce, coalesce_s) = timed(Some(rec), "sim.run", || run(&coalescing(seed)));
    let (resilient, resilient_s) = timed(Some(rec), "sim.run_resilient", || {
        run_resilient(&resilient(seed))
    });
    let on_chip_coalesce = ServingReport {
        chip_queries: None,
        ..pair.coalesce.clone()
    };
    let on_chip_resilient = ResilienceReport {
        chip_queries: None,
        ..pair.resilient.clone()
    };
    if coalesce.to_json() != on_chip_coalesce.to_json()
        || resilient.to_json() != on_chip_resilient.to_json()
    {
        return Err("model-only reports differ from the on-chip reports".into());
    }
    Ok((coalesce_s, resilient_s))
}

/// Per-layer counts of one pair, read from its reports.
pub fn layers(pair: &PairRun) -> BTreeMap<&'static str, f64> {
    let (c, r) = (&pair.coalesce, &pair.resilient);
    let replicas = &r.replicas;
    let sum = |f: &dyn Fn(&photon_sim::ReplicaStats) -> u64| replicas.iter().map(f).sum::<u64>();
    let opens = replicas
        .iter()
        .flat_map(|s| &s.breaker_transitions)
        .filter(|t| t.to == BreakerState::Open)
        .count();
    let mut m = BTreeMap::new();
    m.insert(
        "sim.arrivals",
        (c.aggregate.arrivals + r.aggregate.arrivals) as f64,
    );
    m.insert("sim.dispatches", (c.batches + r.batches) as f64);
    m.insert(
        "sim.batched_requests",
        c.mean_batch * c.batches as f64 + r.mean_batch * r.batches as f64,
    );
    m.insert("photonics.serve_queries", pair.queries as f64);
    m.insert("farm.shed", (c.aggregate.shed + r.aggregate.shed) as f64);
    m.insert(
        "farm.expired",
        (c.aggregate.expired + r.aggregate.expired) as f64,
    );
    m.insert("farm.hedges_fired", r.hedges_fired as f64);
    m.insert("farm.hedge_wins", r.hedge_wins as f64);
    m.insert("farm.duplicates", r.duplicates as f64);
    m.insert("farm.breaker_opens", opens as f64);
    m.insert("farm.tier_transitions", sum(&|s| s.tier_transitions) as f64);
    m.insert("farm.tier_served.f64", sum(&|s| s.tier_served[0]) as f64);
    m.insert("farm.tier_served.f32", sum(&|s| s.tier_served[1]) as f64);
    m.insert("farm.tier_served.i16", sum(&|s| s.tier_served[2]) as f64);
    m.insert("faults.dispatch_timeouts", sum(&|s| s.timeouts) as f64);
    m
}

/// Virtual ns per request the sim charges a dispatch of `mean_batch`
/// requests: `CostModel::calibrated_8x8().service_ns(b) / b` at the nearest
/// whole batch.
pub fn charged_ns_per_query(mean_batch: f64) -> f64 {
    let b = (mean_batch.round() as usize).max(1);
    CostModel::calibrated_8x8().service_ns(b) as f64 / b as f64
}
