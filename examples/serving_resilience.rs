//! Failover demo for the resilient serving layer: an 8x8 fabricated chip
//! pinned at its deployment parameters and replicated three ways behind
//! one logical endpoint, then two chaos events mid-run — one replica
//! killed outright, one wedged in a 4 ms hang window. Three arms of the
//! same seeded workload:
//!
//! 1. **healthy** — no faults, the tail-latency baseline;
//! 2. **resilient** — faults on, full machinery: per-replica circuit
//!    breakers, p99-derived hedged re-dispatch with idempotent dedup,
//!    deadline propagation, and the brownout tier ladder. This arm runs
//!    chip-backed, so the chip's query counter is reconciled against the
//!    eval + hedge ledger;
//! 3. **control** — same faults, machinery disabled (only the plain
//!    dispatch watchdog and deadlines remain).
//!
//! The demo exits non-zero unless the resilient arm holds p99 within 2x of
//! healthy while losing strictly fewer requests than the control arm —
//! the claim ci.sh gates on.
//!
//! All timing is virtual and every draw derives from the root seed, so the
//! output is **byte-identical** on every run (ci.sh checks with `cmp`).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example serving_resilience
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_zo::farm::{CoalescePolicy, HedgePolicy};
use photon_zo::faults::ReplicaChaos;
use photon_zo::photonics::{Architecture, ErrorModel, FabricatedChip};
use photon_zo::sim::{run, run_on_chip, ArrivalProcess, ReplicaSpec, ResilientConfig, TenantLoad};

const ROOT_SEED: u64 = 7117;
/// 20 virtual ms of open-loop traffic.
const WINDOW_NS: u64 = 20_000_000;
const KILL_AT_NS: u64 = 5_000_000;
const HANG_FROM_NS: u64 = 4_000_000;
const HANG_UNTIL_NS: u64 = 8_000_000;

fn scenario(label: &str, faulty: bool) -> ResilientConfig {
    let beta_chaos = if faulty {
        ReplicaChaos::none().kill_at(KILL_AT_NS)
    } else {
        ReplicaChaos::none()
    };
    let gamma_chaos = if faulty {
        ReplicaChaos::none().hang_between(HANG_FROM_NS, HANG_UNTIL_NS)
    } else {
        ReplicaChaos::none()
    };
    ResilientConfig::new(ROOT_SEED, WINDOW_NS)
        .with_label(label)
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
        .with_coalescer(CoalescePolicy::new(16, 100_000))
        .with_default_deadline_ns(2_000_000)
        .with_hedge(Some(HedgePolicy {
            quantile: 0.5,
            min_delay_ns: 50_000,
            window: 256,
            min_samples: 16,
        }))
}

fn main() {
    // The deployment: one fabricated chip, pinned — all three replicas
    // serve the same theta, so one chip instance stands in for the group.
    let mut rng = StdRng::seed_from_u64(ROOT_SEED);
    let arch = Architecture::single_mesh(8, 8).expect("8x8 single mesh");
    let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
    let theta = chip.init_params(&mut rng);
    chip.pin_compile_base(&theta);

    let healthy = run(&scenario("healthy", false));
    print!("{}", healthy.render());
    println!();

    let before = chip.query_count();
    let resilient = run_on_chip(&scenario("resilient", true), &chip);
    let spent = chip.query_count() - before;
    print!("{}", resilient.render());
    for r in &resilient.replicas {
        for t in &r.breaker_transitions {
            println!(
                "  breaker[{}] {:>9} -> {:<9} at {:.3} ms",
                r.name,
                t.from.label(),
                t.to.label(),
                t.at_ns as f64 / 1e6
            );
        }
    }
    println!();

    let control = run(&scenario("control", true).without_resilience());
    print!("{}", control.render());
    println!();

    // The invariants ci.sh gates on.
    assert!(
        resilient.conserves_requests() && control.conserves_requests(),
        "every arrival must be completed, shed, or expired"
    );
    assert_eq!(
        Some(spent),
        resilient.chip_queries,
        "chip spend must match the report"
    );
    assert_eq!(
        spent,
        resilient.eval_queries + resilient.hedge_queries,
        "chip spend must reconcile with the eval+hedge ledger"
    );
    println!(
        "chip reconciliation: {spent} chip queries == {} eval + {} hedge",
        resilient.eval_queries, resilient.hedge_queries
    );

    let bound_ns = 2.0 * healthy.aggregate.p99_ns;
    let p99_held = resilient.aggregate.p99_ns <= bound_ns;
    let sheds_less = resilient.lost() < control.lost();
    println!(
        "p99 bound: resilient {:.1} us <= 2x healthy {:.1} us: {}",
        resilient.aggregate.p99_ns / 1e3,
        healthy.aggregate.p99_ns / 1e3,
        if p99_held { "yes" } else { "NO" }
    );
    println!(
        "resilient sheds less than control: {} < {}: {}",
        resilient.lost(),
        control.lost(),
        if sheds_less { "yes" } else { "NO" }
    );
    assert!(
        p99_held,
        "resilient arm must hold the 2x tail-latency bound"
    );
    assert!(
        sheds_less,
        "resilient arm must lose strictly less than control"
    );
}
