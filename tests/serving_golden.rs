//! Golden outputs of the serving event loop: the exact `to_json` and
//! `render` text of a fixed set of model-only runs — the `serving_sim` and
//! `serving_resilience` example arms, the simulated `BENCH_serving.json`
//! arms, and one config per simulator scenario — compared line by line
//! with `tests/golden/serving_reports.jsonl` and
//! `tests/golden/serving_reports.txt`.
//!
//! Any change to dispatch order, drain order, RNG draws, timing or report
//! fields shows up here as a byte difference. When a change is meant to
//! move the numbers, regenerate the file with
//!
//! ```text
//! PHOTON_BLESS=1 cargo test --test serving_golden
//! ```
//!
//! and explain the diff in the change that commits it.

use photon_zo::farm::{CoalescePolicy, HedgePolicy};
use photon_zo::faults::ReplicaChaos;
use photon_zo::sim::{
    run, ArrivalProcess, CanaryTraffic, ProbeTraffic, RecalTraffic, ReplicaSpec, ResilientConfig,
    ServingReport, SimConfig, TenantLoad,
};
use photon_zo::trace::json_str;
use std::sync::OnceLock;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/serving_reports.jsonl"
);

const GOLDEN_TEXT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/serving_reports.txt"
);

fn poisson(rate_hz: f64) -> ArrivalProcess {
    ArrivalProcess::Poisson { rate_hz }
}

fn bursty(on_rate_hz: f64, off_rate_hz: f64, mean_on_ns: f64, mean_off_ns: f64) -> ArrivalProcess {
    ArrivalProcess::Bursty {
        on_rate_hz,
        off_rate_hz,
        mean_on_ns,
        mean_off_ns,
    }
}

/// The `serving_sim` example's workload (seed 4242).
fn example_pool(label: &str, coalescer: CoalescePolicy) -> SimConfig {
    SimConfig::new(4242, 25_000_000)
        .with_label(label)
        .with_workers(2)
        .with_coalescer(coalescer)
        .with_tenant(TenantLoad::new("steady", poisson(250_000.0)).with_queue_cap(1024))
        .with_tenant(
            TenantLoad::new("bursty", bursty(400_000.0, 10_000.0, 3e6, 4e6)).with_queue_cap(1024),
        )
        .with_recalibration(RecalTraffic {
            start_ns: 5_000_000,
            period_ns: 10_000_000,
        })
}

/// The `serving_resilience` example's and the bench's resilience scenario:
/// three replicas, beta killed at 5 ms and gamma hung 4–8 ms when `faulty`.
fn chaos_group(seed: u64, label: &str, faulty: bool) -> ResilientConfig {
    let (kill, hang) = if faulty {
        (
            ReplicaChaos::none().kill_at(5_000_000),
            ReplicaChaos::none().hang_between(4_000_000, 8_000_000),
        )
    } else {
        (ReplicaChaos::none(), ReplicaChaos::none())
    };
    ResilientConfig::new(seed, 20_000_000)
        .with_label(label)
        .with_replica(ReplicaSpec::clean("alpha"))
        .with_replica(ReplicaSpec::clean("beta").with_chaos(kill))
        .with_replica(ReplicaSpec::clean("gamma").with_chaos(hang))
        .with_tenant(TenantLoad::new("steady", poisson(60_000.0)))
        .with_tenant(TenantLoad::new(
            "bursty",
            bursty(120_000.0, 10_000.0, 3e6, 4e6),
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

/// One `BENCH_serving.json` simulated arm (seed 8080).
fn bench_pool(name: &str, process: ArrivalProcess, coalesced: bool) -> SimConfig {
    let (mode, policy) = if coalesced {
        ("coalesced", CoalescePolicy::new(16, 100_000))
    } else {
        ("uncoalesced", CoalescePolicy::uncoalesced())
    };
    SimConfig::new(8080, 50_000_000)
        .with_label(&format!("{name}/{mode}"))
        .with_workers(2)
        .with_coalescer(policy)
        .with_tenant(TenantLoad::new(name, process).with_queue_cap(512))
}

/// The simulator unit tests' two-tenant pool.
fn smoke(seed: u64) -> SimConfig {
    SimConfig::new(seed, 20_000_000)
        .with_label("smoke")
        .with_tenant(TenantLoad::new("alice", poisson(60_000.0)))
        .with_tenant(TenantLoad::new("bob", bursty(120_000.0, 5_000.0, 2e6, 2e6)))
}

/// The simulator unit tests' healthy three-replica group.
fn group(seed: u64) -> ResilientConfig {
    ResilientConfig::new(seed, 20_000_000)
        .with_replica(ReplicaSpec::clean("r0"))
        .with_replica(ReplicaSpec::clean("r1"))
        .with_replica(ReplicaSpec::clean("r2"))
        .with_tenant(TenantLoad::new("alice", poisson(60_000.0)))
        .with_tenant(TenantLoad::new("bob", poisson(40_000.0)))
}

/// The golden run set, simulated once and shared by both golden tests.
fn reports() -> &'static [(&'static str, ServingReport)] {
    static REPORTS: OnceLock<Vec<(&'static str, ServingReport)>> = OnceLock::new();
    REPORTS.get_or_init(simulate)
}

fn simulate() -> Vec<(&'static str, ServingReport)> {
    let bench_poisson = poisson(1_000_000.0);
    let bench_bursty = bursty(800_000.0, 20_000.0, 5e6, 5e6);
    let mut hangs = smoke(33).with_label("hangy");
    hangs.cost.base = hangs.cost.base.with_hangs(0.01, 3_000_000);
    let mut hedged = group(19).with_label("hedgy");
    hedged.cost.base = hedged.cost.base.with_hangs(0.02, 2_000_000);
    hedged.dispatch_timeout_ns = Some(4_000_000);
    let flood = |name: &str| TenantLoad::new(name, poisson(900_000.0)).with_queue_cap(256);
    vec![
        (
            "serving_sim/uncoalesced",
            run(&example_pool("uncoalesced", CoalescePolicy::uncoalesced())),
        ),
        (
            "serving_sim/coalesced-16",
            run(&example_pool(
                "coalesced-16",
                CoalescePolicy::new(16, 100_000),
            )),
        ),
        (
            "serving_resilience/healthy",
            run(&chaos_group(7117, "healthy", false)),
        ),
        (
            "serving_resilience/resilient",
            run(&chaos_group(7117, "resilient", true)),
        ),
        (
            "serving_resilience/control",
            run(&chaos_group(7117, "control", true).without_resilience()),
        ),
        (
            "bench/poisson/uncoalesced",
            run(&bench_pool("poisson", bench_poisson, false)),
        ),
        (
            "bench/poisson/coalesced",
            run(&bench_pool("poisson", bench_poisson, true)),
        ),
        (
            "bench/bursty/uncoalesced",
            run(&bench_pool("bursty", bench_bursty, false)),
        ),
        (
            "bench/bursty/coalesced",
            run(&bench_pool("bursty", bench_bursty, true)),
        ),
        (
            "bench/healthy-baseline",
            run(&chaos_group(8080, "healthy-baseline", false)),
        ),
        (
            "bench/resilient-faults",
            run(&chaos_group(8080, "resilient-faults", true)),
        ),
        (
            "bench/control-faults",
            run(&chaos_group(8080, "control-faults", true).without_resilience()),
        ),
        (
            "recal",
            run(&smoke(21).with_recalibration(RecalTraffic {
                start_ns: 1_000_000,
                period_ns: 5_000_000,
            })),
        ),
        (
            "probes",
            run(&smoke(55)
                .with_coalescer(CoalescePolicy::new(16, 100_000))
                .with_probes(ProbeTraffic {
                    start_ns: 500_000,
                    total: 400,
                    per_window: 4,
                    window_ns: 500_000,
                })),
        ),
        (
            "canary",
            run(&smoke(63).with_canary(CanaryTraffic {
                start_ns: 2_000_000,
                period_ns: 5_000_000,
                samples: 32,
            })),
        ),
        ("hangs", run(&hangs)),
        (
            "deadline-expiry",
            run(&SimConfig::new(17, 20_000_000)
                .with_tenant(TenantLoad::new("dl", poisson(2_500_000.0)).with_deadline_ns(300_000))
                .with_coalescer(CoalescePolicy::new(16, 100_000))),
        ),
        (
            "shed-cap",
            run(&SimConfig::new(3, 10_000_000)
                .with_tenant(TenantLoad::new("flood", poisson(600_000.0)).with_queue_cap(8))),
        ),
        (
            "brownout-overload",
            run(&ResilientConfig::new(3, 20_000_000)
                .with_label("overload")
                .with_replica(ReplicaSpec::clean("r0"))
                .with_tenant(flood("flood"))),
        ),
        ("hedging-with-hangs", run(&hedged)),
        (
            "two-tenant-drain",
            run(&ResilientConfig::new(3, 20_000_000)
                .with_label("two-tenant-drain")
                .with_replica(ReplicaSpec::clean("r0"))
                .with_tenant(flood("alice"))
                .with_tenant(flood("bob"))
                .without_resilience()),
        ),
    ]
}

/// Compares `lines` with the golden file at `path` line by line, or
/// rewrites the file when `PHOTON_BLESS` is set.
fn check_golden(path: &str, lines: &[String]) {
    if std::env::var_os("PHOTON_BLESS").is_some() {
        std::fs::write(path, lines.join("\n") + "\n").expect("write the golden file");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file present");
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(
        golden.len(),
        lines.len(),
        "golden file {path} covers a different run set"
    );
    for (want, got) in golden.iter().zip(lines) {
        assert_eq!(*want, got, "serving report drifted from {path}");
    }
}

#[test]
fn serving_reports_match_the_golden_file() {
    let lines: Vec<String> = reports()
        .iter()
        .map(|(name, report)| {
            format!(
                "{{\"name\":{},\"report\":{}}}",
                json_str(name),
                report.to_json()
            )
        })
        .collect();
    check_golden(GOLDEN, &lines);
}

#[test]
fn serving_report_text_matches_the_golden_file() {
    let lines: Vec<String> = reports()
        .iter()
        .flat_map(|(name, report)| {
            std::iter::once(format!("== {name}"))
                .chain(report.render().lines().map(str::to_string))
                .collect::<Vec<_>>()
        })
        .collect();
    check_golden(GOLDEN_TEXT, &lines);
}
