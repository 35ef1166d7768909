//! Chaos tests for the resilient serving layer: a three-replica group with
//! one scripted kill and one scripted hang mid-run must stay bitwise
//! deterministic, lose zero requests silently (arrivals reconcile against
//! completions + sheds + expiries, and chip queries against the
//! eval/hedge ledger), trip and recover circuit breakers at deterministic
//! virtual times, and hold tail latency within a bounded factor of the
//! healthy baseline while the no-resilience control arm degrades.
//!
//! Plus property tests on the two foundations everything rests on: the
//! event heap's same-instant FIFO ordering, and hedged serving counting
//! each request once at any root seed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_zo::farm::{BreakerState, CoalescePolicy, HedgePolicy};
use photon_zo::faults::ReplicaChaos;
use photon_zo::photonics::{Architecture, ErrorModel, FabricatedChip};
use photon_zo::sim::{
    run, run_on_chip, ArrivalProcess, EventHeap, ReplicaSpec, ResilientConfig, ServingReport,
    SimConfig, TenantLoad,
};

const KILL_AT_NS: u64 = 5_000_000;
const HANG_FROM_NS: u64 = 4_000_000;
const HANG_UNTIL_NS: u64 = 8_000_000;

/// The shared scenario: three replicas behind one endpoint, 100 krps of
/// two-tenant Poisson traffic for 20 ms of virtual time. Hedging is tuned
/// aggressive (median-latency delay, 50 µs floor) so a leg stuck on a
/// faulty replica is re-dispatched quickly.
fn chaos_cfg(seed: u64) -> ResilientConfig {
    ResilientConfig::new(seed, 20_000_000)
        .with_label("chaos")
        .with_replica(ReplicaSpec::clean("alpha"))
        .with_replica(
            ReplicaSpec::clean("beta").with_chaos(ReplicaChaos::none().kill_at(KILL_AT_NS)),
        )
        .with_replica(
            ReplicaSpec::clean("gamma")
                .with_chaos(ReplicaChaos::none().hang_between(HANG_FROM_NS, HANG_UNTIL_NS)),
        )
        .with_tenant(TenantLoad::new(
            "alice",
            ArrivalProcess::Poisson { rate_hz: 60_000.0 },
        ))
        .with_tenant(TenantLoad::new(
            "bob",
            ArrivalProcess::Poisson { rate_hz: 40_000.0 },
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

/// The same offered load with no scripted faults: the healthy baseline the
/// tail-latency bound is measured against.
fn healthy_cfg(seed: u64) -> ResilientConfig {
    let mut cfg = chaos_cfg(seed).with_label("healthy");
    for r in &mut cfg.replicas {
        r.chaos = ReplicaChaos::none();
    }
    cfg
}

#[test]
fn chaos_run_replays_bitwise_across_thread_settings() {
    let baseline = run(&chaos_cfg(2024)).to_json();
    assert_eq!(baseline, run(&chaos_cfg(2024)).to_json());

    // Virtual time must be oblivious to the worker-pool knob the rest of
    // the repo honors.
    for threads in ["1", "3"] {
        std::env::set_var("PHOTON_THREADS", threads);
        assert_eq!(
            baseline,
            run(&chaos_cfg(2024)).to_json(),
            "PHOTON_THREADS={threads} changed the chaos report"
        );
    }
    std::env::remove_var("PHOTON_THREADS");

    assert_ne!(baseline, run(&chaos_cfg(2025)).to_json());
}

/// The chaos scenario plus random 300 µs stalls on 5% of dispatches. A
/// stall outlives the hedge delay but not the watchdog, so the stalled leg
/// completes after its hedge did: a duplicate of requests already served.
fn stalling_chaos_cfg(seed: u64) -> ResilientConfig {
    let mut cfg = chaos_cfg(seed).with_label("chaos-stalls");
    cfg.cost.base = cfg.cost.base.with_hangs(0.05, 300_000);
    cfg
}

/// Every request of a chaos run is accounted for, and served once.
fn assert_served_once(report: &ServingReport) {
    assert!(
        report.conserves_requests(),
        "arrivals must equal completed + shed + expired for every tenant"
    );
    assert!(report.aggregate.completed > 0);
    // Idempotent dedup: tenant completions count each request once even
    // when both a primary and a hedge leg served it.
    assert_eq!(report.eval_queries, report.aggregate.completed);
    assert_eq!(report.hedge_queries, report.duplicates);
    // The kill and the hang both happened: legs were abandoned.
    assert!(
        report.replicas[1].timeouts > 0,
        "killed replica must time out"
    );
    assert!(
        report.replicas[2].timeouts > 0,
        "hung replica must time out"
    );
}

#[test]
fn chaos_run_loses_no_request_silently() {
    assert_served_once(&run(&chaos_cfg(7)));
    // With stalls, hedge races really do complete requests twice, and each
    // request still counts once.
    let stalled = run(&stalling_chaos_cfg(7));
    assert_served_once(&stalled);
    assert!(
        stalled.duplicates > 0,
        "stalled legs must complete as duplicates"
    );
}

#[test]
fn chip_counters_reconcile_with_the_hedge_ledger() {
    let mut rng = StdRng::seed_from_u64(5);
    let arch = Architecture::single_mesh(4, 4).unwrap();
    let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
    let theta = chip.init_params(&mut rng);
    chip.pin_compile_base(&theta);

    // A shorter window keeps the chip-backed run cheap.
    let mut cfg = chaos_cfg(9);
    cfg.duration_ns = 8_000_000;

    let before = chip.query_count();
    let report = run_on_chip(&cfg, &chip);
    let spent = chip.query_count() - before;

    // Every chip query is attributed: first completions to the eval
    // ledger, duplicate hedge completions to the hedge ledger.
    assert_eq!(report.chip_queries, Some(spent));
    assert_eq!(spent, report.eval_queries + report.hedge_queries);
    assert!(report.conserves_requests());

    // Chip-backed chaos runs replay bitwise too.
    assert_eq!(report.to_json(), run_on_chip(&cfg, &chip).to_json());
}

#[test]
fn breakers_open_and_recover_at_deterministic_virtual_times() {
    let report = run(&chaos_cfg(7));

    // The killed replica's breaker opens after the kill and never
    // re-closes: every half-open probe it admits times out again.
    let beta = &report.replicas[1];
    let first_open = beta
        .breaker_transitions
        .iter()
        .find(|t| t.to == BreakerState::Open)
        .expect("killed replica's breaker must open");
    assert!(
        first_open.at_ns >= KILL_AT_NS,
        "breaker cannot open before the kill: {} ns",
        first_open.at_ns
    );
    assert_ne!(beta.final_breaker, BreakerState::Closed);
    assert!(
        !beta
            .breaker_transitions
            .iter()
            .any(|t| t.from == BreakerState::HalfOpen && t.to == BreakerState::Closed),
        "a dead replica must never pass a half-open probe"
    );

    // The hung replica's breaker opens inside the hang window, then a
    // half-open probe succeeds after the hang releases and re-closes it.
    let gamma = &report.replicas[2];
    let open = gamma
        .breaker_transitions
        .iter()
        .find(|t| t.to == BreakerState::Open)
        .expect("hung replica's breaker must open");
    assert!(open.at_ns >= HANG_FROM_NS);
    let reclose = gamma
        .breaker_transitions
        .iter()
        .find(|t| t.from == BreakerState::HalfOpen && t.to == BreakerState::Closed)
        .expect("hung replica must recover through a half-open probe");
    assert!(
        reclose.at_ns >= HANG_UNTIL_NS,
        "recovery cannot precede the hang release: {} ns",
        reclose.at_ns
    );
    assert_eq!(gamma.final_breaker, BreakerState::Closed);
    assert!(
        gamma.completions > 0,
        "the recovered replica must serve again after re-closing"
    );

    // Deterministic: the transition log is part of the JSON contract, so a
    // replay reproduces every timestamp exactly.
    let replay = run(&chaos_cfg(7));
    assert_eq!(
        report.replicas[1].breaker_transitions,
        replay.replicas[1].breaker_transitions
    );
    assert_eq!(
        report.replicas[2].breaker_transitions,
        replay.replicas[2].breaker_transitions
    );
}

#[test]
fn resilience_holds_p99_within_2x_of_healthy_while_control_degrades() {
    let healthy = run(&healthy_cfg(7));
    let resilient = run(&chaos_cfg(7));
    let control = run(&chaos_cfg(7).without_resilience().with_label("control"));

    assert!(
        healthy.lost() == 0,
        "the healthy baseline must lose nothing"
    );
    let bound = 2.0 * healthy.aggregate.p99_ns;
    assert!(
        resilient.aggregate.p99_ns <= bound,
        "resilient p99 {:.0} ns must stay within 2x of healthy {:.0} ns",
        resilient.aggregate.p99_ns,
        healthy.aggregate.p99_ns
    );
    assert!(
        resilient.hedges_fired > 0 && resilient.hedge_wins > 0,
        "the bound must be held *by* hedging, not by luck"
    );
    // The control arm with breakers, brownout and hedging all disabled
    // keeps feeding the dead replica forever: it must either lose more
    // requests outright or blow the latency bound (in this scenario it
    // does both, but either failure justifies the resilience machinery).
    assert!(
        control.lost() > resilient.lost() || control.aggregate.p99_ns > bound,
        "control lost {} vs resilient {} (p99 {:.0} vs bound {:.0})",
        control.lost(),
        resilient.lost(),
        control.aggregate.p99_ns,
        bound
    );
    assert!(
        resilient.lost() < control.lost(),
        "resilience must shed strictly less than the control arm: {} vs {}",
        resilient.lost(),
        control.lost()
    );
}

#[test]
fn drain_round_robins_tenants_under_overload() {
    // Two equal floods on one replica: the drain visits tenants
    // round-robin from a persistent cursor, so neither tenant drains first
    // every time and both are served alike.
    let flood = |name: &str| {
        TenantLoad::new(name, ArrivalProcess::Poisson { rate_hz: 900_000.0 }).with_queue_cap(256)
    };
    let cfg = ResilientConfig::new(3, 20_000_000)
        .with_label("two-tenant-drain")
        .with_replica(ReplicaSpec::clean("r0"))
        .with_tenant(flood("alice"))
        .with_tenant(flood("bob"))
        .without_resilience();
    let report = run(&cfg);
    assert!(report.conserves_requests());
    let (alice, bob) = (&report.tenants[0], &report.tenants[1]);
    assert_eq!((alice.completed, bob.completed), (14_286, 14_290));
    let gap = alice.completed.abs_diff(bob.completed);
    assert!(
        gap * 100 <= alice.completed,
        "equal floods must be served within 1%: alice {} vs bob {}",
        alice.completed,
        bob.completed
    );
    assert!(
        alice.shed > 0 && bob.shed > 0,
        "both tenants shed their share: alice {} vs bob {}",
        alice.shed,
        bob.shed
    );
}

#[test]
#[should_panic(expected = "need a dispatch watchdog")]
fn hedging_without_a_watchdog_is_rejected() {
    // A hedge timer re-arms until the primary's watchdog resolves the
    // batch; with no watchdog and a killed sole replica it would re-arm
    // forever.
    let mut cfg = ResilientConfig::new(1, 1_000_000)
        .with_replica(ReplicaSpec::clean("r0"))
        .with_tenant(TenantLoad::new(
            "t",
            ArrivalProcess::Poisson { rate_hz: 1_000.0 },
        ));
    cfg.dispatch_timeout_ns = None;
    let _ = run(&cfg);
}

#[test]
#[should_panic(expected = "need a dispatch watchdog")]
fn scripted_kill_without_a_watchdog_is_rejected() {
    // Only the watchdog gets a leg back from a killed replica.
    let mut cfg = ResilientConfig::new(1, 1_000_000)
        .with_replica(ReplicaSpec::clean("r0").with_chaos(ReplicaChaos::none().kill_at(KILL_AT_NS)))
        .with_tenant(TenantLoad::new(
            "t",
            ArrivalProcess::Poisson { rate_hz: 1_000.0 },
        ))
        .with_hedge(None);
    cfg.dispatch_timeout_ns = None;
    let _ = run(&cfg);
}

#[test]
#[should_panic(expected = "needs a deadline on every tenant")]
fn watchdog_without_deadlines_is_rejected() {
    // A pool given a watchdog but no deadlines: with every replica dead,
    // nothing would ever drain its queues.
    let mut cfg = SimConfig::new(1, 1_000_000).with_tenant(TenantLoad::new(
        "t",
        ArrivalProcess::Poisson { rate_hz: 1_000.0 },
    ));
    cfg.dispatch_timeout_ns = Some(500_000);
    let _ = run(&cfg);
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

/// One scripted heap operation.
#[derive(Debug, Clone)]
enum HeapOp {
    Push(u64),
    Pop,
}

fn arb_ops() -> impl Strategy<Value = Vec<HeapOp>> {
    // Times drawn from a tiny range force same-instant collisions, which
    // is exactly where FIFO tie-breaking matters.
    proptest::collection::vec(
        prop_oneof![(0u64..4).prop_map(HeapOp::Push), Just(HeapOp::Pop),],
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The event heap pops strictly by `(time, insertion order)` under any
    /// interleaving of pushes and pops: same-instant events come out in
    /// exactly the order they were scheduled. The whole replay contract —
    /// and the breaker/hedge timestamp determinism asserted above — rests
    /// on this.
    #[test]
    fn event_heap_is_fifo_at_equal_instants(ops in arb_ops()) {
        let mut heap: EventHeap<u64> = EventHeap::new();
        let mut model: Vec<(u64, u64)> = Vec::new(); // (at_ns, seq), kept sorted
        let mut payload = 0u64;
        for op in ops {
            match op {
                HeapOp::Push(at) => {
                    let seq = heap.schedule(at, payload);
                    model.push((at, seq));
                    model.sort(); // (time, seq) lexicographic = FIFO within an instant
                    payload += 1;
                }
                HeapOp::Pop => {
                    let got = heap.pop().map(|(at, seq, _)| (at, seq));
                    let want = if model.is_empty() {
                        None
                    } else {
                        Some(model.remove(0))
                    };
                    prop_assert_eq!(got, want, "heap must pop the oldest same-instant event");
                }
            }
        }
        // Drain whatever is left: still perfectly ordered.
        while let Some(want) = (!model.is_empty()).then(|| model.remove(0)) {
            let got = heap.pop().map(|(at, seq, _)| (at, seq));
            prop_assert_eq!(got, Some(want));
        }
        prop_assert!(heap.pop().is_none());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Hedged serving serves each request exactly once at any root seed:
    /// the stalling chaos run's accounting holds whatever the arrivals,
    /// with every duplicate hedge completion counted apart from tenant
    /// work.
    #[test]
    fn hedged_dedup_serves_each_id_exactly_once(seed in any::<u64>()) {
        let report = run(&stalling_chaos_cfg(seed));
        assert_served_once(&report);
        prop_assert!(report.duplicates > 0, "stalled legs must complete as duplicates");
    }
}
