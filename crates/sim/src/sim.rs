//! The discrete-event serving simulator: one event loop for a plain worker
//! pool and for a resilient replica group.
//!
//! One run is a pure function of a [`Config`]: arrivals, dispatch
//! decisions, service times, and fault hangs all derive from RNG streams
//! seeded from the config's root seed, and all timing is *virtual*
//! nanoseconds advanced by the event heap — the simulator never reads a
//! clock. Identical config ⇒ byte-identical [`ServingReport`], on any
//! host, at any `PHOTON_THREADS` setting.
//!
//! The model: replicas — chips pinned to the same deployment theta behind
//! one endpoint — serve open-loop requests from per-tenant bounded queues.
//! An idle replica asks the [`CoalescePolicy`] whether to drain a
//! microbatch now, wait for the flush deadline, or idle; each dispatch is
//! charged virtual time from the hand-set [`TierCostModel`]. Background
//! recalibration, canary and probe traffic occupies a replica the way a
//! batch does. Policies sit on the loop and are inert when off: a dispatch
//! watchdog feeding per-replica [`CircuitBreaker`]s, hedged re-dispatch
//! (first completion wins), the brownout tier ladder, and deadlines. A
//! [`SimConfig`] pool starts with all of them off; a [`ResilientConfig`]
//! group starts with all of them on.

use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

use photon_farm::{
    BreakerPolicy, BreakerState, BrownoutController, BrownoutPolicy, CircuitBreaker,
    CoalescePolicy, DrainDecision, HedgeDelayTracker, HedgePolicy, RequestQueue, ServeRequest,
    ServingTier, NO_DEADLINE,
};
use photon_faults::ReplicaChaos;
use photon_linalg::CVector;
use photon_photonics::{BatchScratch, FabricatedChip};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::arrivals::{ArrivalGen, ArrivalProcess};
use crate::cost::TierCostModel;
use crate::heap::EventHeap;
use crate::report::{ReplicaStats, ServingReport, TenantServingStats};

/// One tenant's offered load.
#[derive(Debug, Clone)]
pub struct TenantLoad {
    /// Tenant name (reporting only).
    pub name: String,
    /// The tenant's arrival process.
    pub process: ArrivalProcess,
    /// Bound on the tenant's request queue; arrivals beyond it are shed.
    pub queue_cap: usize,
    /// Relative completion deadline each request carries (virtual ns past
    /// its arrival); `None` falls back to the config's
    /// [`Config::default_deadline_ns`]. A request whose deadline has passed
    /// by the time a replica drains it is dropped as *expired* rather than
    /// served — its caller already gave up.
    pub deadline_ns: Option<u64>,
}

impl TenantLoad {
    /// A tenant with a queue bound of 4096 requests and no deadline of its
    /// own.
    pub fn new(name: &str, process: ArrivalProcess) -> Self {
        TenantLoad {
            name: name.to_string(),
            process,
            queue_cap: 4096,
            deadline_ns: None,
        }
    }

    /// Overrides the queue bound.
    #[must_use]
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Attaches a relative completion deadline to every request.
    ///
    /// # Panics
    ///
    /// Panics on a zero deadline — every request would expire on arrival.
    #[must_use]
    pub fn with_deadline_ns(mut self, deadline_ns: u64) -> Self {
        assert!(
            deadline_ns >= 1,
            "a zero deadline expires everything at arrival"
        );
        self.deadline_ns = Some(deadline_ns);
        self
    }
}

/// Background recalibration traffic: one pass every `period_ns`, first
/// pass at `start_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecalTraffic {
    /// Virtual time of the first pass.
    pub start_ns: u64,
    /// Pass period in virtual nanoseconds.
    pub period_ns: u64,
}

/// Piggybacked calibration-probe traffic: a backlog of `total` probe
/// measurements that the dispatcher feeds into *idle* microbatch slots —
/// slots where the coalescer chose to idle or wait rather than serve — at
/// most `per_window` probes per `window_ns` window starting at `start_ns`.
///
/// Probes never preempt a servable inference batch, so their only latency
/// cost is occupying a replica for [`CostModel::probe_service_ns`] when a
/// request arrives just after the probe started; the window budget bounds
/// how often that can happen.
///
/// [`CostModel::probe_service_ns`]: crate::CostModel::probe_service_ns
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeTraffic {
    /// Virtual time the probe backlog opens.
    pub start_ns: u64,
    /// Total probe measurements to take (the calibration sweep size).
    pub total: u64,
    /// Probe budget per window; 0 disables piggybacking entirely.
    pub per_window: u32,
    /// Budget window length in virtual nanoseconds.
    pub window_ns: u64,
}

/// Canary comparison traffic: every `period_ns` starting at `start_ns`, a
/// comparison batch of `samples` requests is served (deployed vs shadow
/// evaluation of the same inputs — one coalesced dispatch). Canaries rank
/// between recalibration and inference: they gate a promotion decision, so
/// they must not starve, but they are rarer than inference batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanaryTraffic {
    /// Virtual time of the first comparison batch.
    pub start_ns: u64,
    /// Comparison period in virtual nanoseconds.
    pub period_ns: u64,
    /// Requests per comparison batch.
    pub samples: usize,
}

/// One replica: a chip slot pinned to the deployment theta, plus its
/// scripted failure modes.
#[derive(Debug, Clone)]
pub struct ReplicaSpec {
    /// Replica name (reporting only).
    pub name: String,
    /// Scripted chaos for this replica.
    pub chaos: ReplicaChaos,
}

impl ReplicaSpec {
    /// A replica with no scripted failures.
    pub fn clean(name: &str) -> Self {
        ReplicaSpec {
            name: name.to_string(),
            chaos: ReplicaChaos::none(),
        }
    }

    /// Attaches scripted chaos.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ReplicaChaos) -> Self {
        self.chaos = chaos;
        self
    }
}

/// Defaults marker of [`SimConfig`]: a plain worker pool.
#[derive(Debug, Clone, Copy)]
pub struct Pool;

/// Defaults marker of [`ResilientConfig`]: a resilient replica group.
#[derive(Debug, Clone, Copy)]
pub struct Group;

/// A worker pool: one clean replica, uncoalesced, no watchdog, no
/// hedging, brownout off.
pub type SimConfig = Preset<Pool>;

/// A resilient replica group: coalescer (16, 100 µs), standard breaker,
/// brownout and hedge policies, 5 ms default deadline, 500 µs watchdog.
pub type ResilientConfig = Preset<Group>;

/// A [`Config`] built from a named set of defaults. The marker `P` only
/// selects what `new` fills in ([`SimConfig::new`] or
/// [`ResilientConfig::new`]); every builder works on both, and both deref
/// to the one [`Config`] that [`run`] takes, so the loop is compiled once.
#[derive(Debug, Clone)]
pub struct Preset<P> {
    config: Config,
    defaults: PhantomData<P>,
}

impl<P> Deref for Preset<P> {
    type Target = Config;

    fn deref(&self) -> &Config {
        &self.config
    }
}

impl<P> DerefMut for Preset<P> {
    fn deref_mut(&mut self) -> &mut Config {
        &mut self.config
    }
}

/// Full specification of one simulation run. Every field participates in
/// the deterministic replay contract.
#[derive(Debug, Clone)]
pub struct Config {
    /// Root seed; every RNG stream in the run derives from it.
    pub root_seed: u64,
    /// Arrival window in virtual nanoseconds. Arrivals stop here; the run
    /// continues until the queues drain.
    pub duration_ns: u64,
    /// The replicas serving the endpoint.
    pub replicas: Vec<ReplicaSpec>,
    /// Microbatch coalescing policy for the serving path.
    pub coalescer: CoalescePolicy,
    /// Tiered virtual-time cost model (the f64 tier is the base model).
    pub cost: TierCostModel,
    /// Offered load, one entry per tenant.
    pub tenants: Vec<TenantLoad>,
    /// Optional background recalibration traffic.
    pub recalibration: Option<RecalTraffic>,
    /// Optional piggybacked calibration-probe traffic.
    pub probes: Option<ProbeTraffic>,
    /// Optional canary comparison traffic.
    pub canary: Option<CanaryTraffic>,
    /// Relative deadline for tenants that don't set their own; `None`
    /// leaves them deadline-free.
    pub default_deadline_ns: Option<u64>,
    /// Per-replica circuit-breaker thresholds (fed only by the watchdog).
    pub breaker: BreakerPolicy,
    /// Brownout tier-ladder hysteresis thresholds.
    pub brownout: BrownoutPolicy,
    /// Hedged re-dispatch policy; `None` disables hedging.
    pub hedge: Option<HedgePolicy>,
    /// Watchdog budget per dispatch: a leg that has not completed this
    /// many virtual nanoseconds after it started is abandoned and counted
    /// as a breaker failure. `None` disables the watchdog.
    pub dispatch_timeout_ns: Option<u64>,
    /// Free-form label carried into the report.
    pub label: String,
}

impl SimConfig {
    /// A single-worker, uncoalesced pool with the calibrated 8x8 cost
    /// model and no tenants; add load with [`Preset::with_tenant`].
    pub fn new(root_seed: u64, duration_ns: u64) -> Self {
        Preset {
            config: Config::pool(root_seed, duration_ns),
            defaults: PhantomData,
        }
    }
}

impl ResilientConfig {
    /// Defaults: calibrated tiered cost model, coalescer (16, 100 µs),
    /// standard breaker/brownout/hedge policies, 5 ms default deadline,
    /// 500 µs dispatch watchdog, no replicas or tenants (add them with
    /// the builders).
    pub fn new(root_seed: u64, duration_ns: u64) -> Self {
        let config = Config {
            replicas: Vec::new(),
            coalescer: CoalescePolicy::new(16, 100_000),
            default_deadline_ns: Some(5_000_000),
            brownout: BrownoutPolicy::standard(),
            hedge: Some(HedgePolicy::standard()),
            dispatch_timeout_ns: Some(500_000),
            ..Config::pool(root_seed, duration_ns)
        };
        Preset {
            config,
            defaults: PhantomData,
        }
    }
}

impl Config {
    /// The worker-pool defaults.
    fn pool(root_seed: u64, duration_ns: u64) -> Self {
        Config {
            root_seed,
            duration_ns,
            replicas: vec![ReplicaSpec::clean("w0")],
            coalescer: CoalescePolicy::uncoalesced(),
            cost: TierCostModel::calibrated_8x8(),
            tenants: Vec::new(),
            recalibration: None,
            probes: None,
            canary: None,
            default_deadline_ns: None,
            breaker: BreakerPolicy::standard(),
            brownout: BrownoutPolicy::disabled(),
            hedge: None,
            dispatch_timeout_ns: None,
            label: String::new(),
        }
    }
}

impl<P> Preset<P> {
    /// Adds a tenant.
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantLoad) -> Self {
        self.tenants.push(tenant);
        self
    }

    /// Adds a replica.
    #[must_use]
    pub fn with_replica(mut self, replica: ReplicaSpec) -> Self {
        self.replicas.push(replica);
        self
    }

    /// Replaces the replicas with `workers` clean ones named `w0`, `w1`, …
    ///
    /// # Panics
    ///
    /// Panics on zero workers.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        self.replicas = (0..workers)
            .map(|i| ReplicaSpec::clean(&format!("w{i}")))
            .collect();
        self
    }

    /// Sets the coalescing policy.
    #[must_use]
    pub fn with_coalescer(mut self, policy: CoalescePolicy) -> Self {
        self.coalescer = policy;
        self
    }

    /// Enables background recalibration traffic.
    #[must_use]
    pub fn with_recalibration(mut self, recal: RecalTraffic) -> Self {
        self.recalibration = Some(recal);
        self
    }

    /// Enables piggybacked calibration-probe traffic.
    #[must_use]
    pub fn with_probes(mut self, probes: ProbeTraffic) -> Self {
        assert!(probes.window_ns >= 1, "probe window must be nonzero");
        self.probes = Some(probes);
        self
    }

    /// Enables canary comparison traffic.
    #[must_use]
    pub fn with_canary(mut self, canary: CanaryTraffic) -> Self {
        assert!(canary.samples >= 1, "a canary batch needs samples");
        self.canary = Some(canary);
        self
    }

    /// Sets the default relative deadline.
    ///
    /// # Panics
    ///
    /// Panics on a zero deadline — every request would expire on arrival.
    #[must_use]
    pub fn with_default_deadline_ns(mut self, ns: u64) -> Self {
        assert!(ns >= 1, "a zero deadline expires everything at arrival");
        self.default_deadline_ns = Some(ns);
        self
    }

    /// Sets (or disables, with `None`) the hedging policy.
    #[must_use]
    pub fn with_hedge(mut self, policy: Option<HedgePolicy>) -> Self {
        self.hedge = policy;
        self
    }

    /// Sets the report label.
    #[must_use]
    pub fn with_label(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }

    /// The no-resilience control arm of the same scenario: breaker never
    /// trips, brownout never engages, no hedging. Deadlines and the
    /// watchdog stay — they are the plain timeout-and-retry baseline any
    /// serving stack has.
    #[must_use]
    pub fn without_resilience(mut self) -> Self {
        self.breaker = BreakerPolicy::disabled();
        self.brownout = BrownoutPolicy::disabled();
        self.hedge = None;
        self
    }
}

/// Runs the simulation purely against the cost model (no chip attached).
///
/// # Panics
///
/// Panics on a config the loop cannot finish: no replica or tenant, a
/// watchdog that cannot outlast a clean full batch, hedging or scripted
/// kills and hangs without a watchdog, or a watchdog with a deadline-free
/// tenant.
pub fn run(cfg: &Config) -> ServingReport {
    Sim::new(cfg).run(None)
}

/// Runs the simulation with every *completed* dispatch also executed on
/// `chip` through [`FabricatedChip::serve_pinned_batch_into`]. Virtual
/// timing still comes from the cost model (wall time never leaks in), and
/// abandoned (timed-out or killed) dispatches never execute, so the chip's
/// query counter reconciles exactly with the ledger:
/// `chip queries == eval_queries + hedge_queries`. The simulated tier only
/// affects virtual timing — chip execution always goes through the pinned
/// f64 path, one query per request.
///
/// # Panics
///
/// Panics when `chip` has no pinned compile base — pin the deployment
/// theta first; serving is defined as evaluation at the pinned base — and
/// on the configs [`run`] rejects.
pub fn run_on_chip(cfg: &Config, chip: &FabricatedChip) -> ServingReport {
    assert!(
        chip.has_pinned_base(),
        "serving requires a pinned compile base; call chip.pin_compile_base(theta) first"
    );
    let mut backend = ChipBackend::new(cfg.root_seed, cfg.coalescer.max_batch, chip);
    Sim::new(cfg).run(Some(&mut backend))
}

/// Derives a child seed for an independent RNG stream (SplitMix64-style
/// mixing, so adjacent stream ids land far apart).
///
/// Every stream — including stream 0 — perturbs the root through a
/// distinct nonzero **odd** gamma `(2·stream + 1)·φ` before the finalizer.
/// A plain `stream·γ` offset is 0 at stream 0, which would leave the
/// pre-mix state equal to the root verbatim and make
/// `derive_seed(r ^ s·γ, 0) == derive_seed(r, s)`: a cross-stream
/// collision family correlating stream 0 with every other stream.
fn derive_seed(root: u64, stream: u64) -> u64 {
    let gamma = stream
        .wrapping_mul(2)
        .wrapping_add(1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut z = root.wrapping_add(gamma);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// Stream-id tags for seed derivation (arbitrary distinct constants; tenant
// arrival streams use ARRIVAL_STREAM + tenant index).
const ARRIVAL_STREAM: u64 = 0x41;
const SERVICE_STREAM: u64 = 0xFA11;
const INPUT_STREAM: u64 = 0x1122;

/// Executes dispatches on a real chip via the pinned serving path.
struct ChipBackend<'c> {
    chip: &'c FabricatedChip,
    scratch: BatchScratch,
    /// A small pool of pre-generated inputs cycled through by dispatch
    /// order (seeded from the root seed, so chip results are replayable
    /// too).
    inputs: Vec<CVector>,
    cursor: usize,
}

impl<'c> ChipBackend<'c> {
    fn new(root_seed: u64, max_batch: usize, chip: &'c FabricatedChip) -> Self {
        let dim = chip.input_dim();
        let mut rng = StdRng::seed_from_u64(derive_seed(root_seed, INPUT_STREAM));
        let pool = max_batch.max(16);
        let inputs = (0..pool)
            .map(|_| photon_linalg::random::normal_cvector(dim, &mut rng))
            .collect();
        ChipBackend {
            chip,
            scratch: BatchScratch::new(),
            inputs,
            cursor: 0,
        }
    }

    /// Serves one coalesced batch of `len` requests; returns the chip
    /// queries spent (== `len`).
    fn serve(&mut self, len: usize) -> u64 {
        let refs: Vec<&CVector> = (0..len)
            .map(|k| &self.inputs[(self.cursor + k) % self.inputs.len()])
            .collect();
        self.cursor = (self.cursor + len) % self.inputs.len();
        let out = self
            .chip
            .serve_pinned_batch_into(&refs, &mut self.scratch)
            .expect("pinned base checked at run_on_chip entry");
        debug_assert_eq!(out.len(), len);
        len as u64
    }
}

/// Simulation events. Wake-ups (`ProbeWindow`, `Flush`, `BreakerWake`) and
/// watchdog or hedge timers may be stale by the time they pop; their
/// handlers only clear a marker or check liveness, so a stale one is
/// harmless.
#[derive(Debug)]
enum Ev {
    /// A request from tenant `i` arrives.
    Arrival(usize),
    /// A background recalibration pass becomes due.
    Recal,
    /// A canary comparison batch becomes due.
    Canary,
    /// A fresh probe-budget window opens.
    ProbeWindow,
    /// A coalescer flush deadline fires.
    Flush,
    /// Leg `id` completes on its replica.
    Done(usize),
    /// Leg `id`'s watchdog budget expires.
    Timeout(usize),
    /// Batch `id`'s hedge delay elapses.
    HedgeFire(usize),
    /// Replica `i`'s breaker cooldown expires.
    BreakerWake(usize),
}

/// One occupation of a replica: a primary or hedge leg of a batch, or
/// background work.
#[derive(Clone, Copy)]
struct Leg {
    replica: usize,
    /// The batch this leg serves; `None` for background work.
    batch: Option<usize>,
    tier: ServingTier,
    /// Still in flight: neither completed nor abandoned.
    live: bool,
    is_hedge: bool,
}

/// One coalesced microbatch and the state of its legs.
struct Batch {
    /// The requests; freed once no leg is in flight.
    requests: Vec<ServeRequest>,
    /// Replica of the primary leg (a hedge must pick a different one).
    primary: usize,
    /// Legs currently in flight.
    live_legs: u8,
    /// No further leg may serve this batch: either a leg already completed
    /// (first completion wins) or every leg was abandoned and the requests
    /// went back to the queues.
    resolved: bool,
    /// A hedge leg was already dispatched (at most one per batch).
    hedged: bool,
}

struct ReplicaState {
    breaker: CircuitBreaker,
    brownout: BrownoutController,
    busy: bool,
    dispatches: u64,
    completions: u64,
    timeouts: u64,
    armed_wake: Option<u64>,
}

/// Per-tenant accumulation during a run.
#[derive(Default)]
struct TenantAcc {
    arrivals: u64,
    completed: u64,
    expired: u64,
    brownout_shed: u64,
    latencies_ns: Vec<f64>,
}

struct Sim<'a> {
    cfg: &'a Config,
    heap: EventHeap<Ev>,
    gens: Vec<ArrivalGen>,
    queues: Vec<RequestQueue>,
    acc: Vec<TenantAcc>,
    replicas: Vec<ReplicaState>,
    legs: Vec<Leg>,
    batches: Vec<Batch>,
    /// Whether breakers can see a failure: only the watchdog produces one.
    breakers: bool,
    /// Whether brownout can engage: some queue depth reaches its first
    /// threshold.
    brownout: bool,
    hedge_tracker: Option<HedgeDelayTracker>,
    /// Group-level controller gating *admission* (per-replica controllers
    /// pick serving tiers; this one decides when new arrivals are shed).
    admission: BrownoutController,
    svc_rng: StdRng,
    now: u64,
    next_id: u64,
    /// Replicas currently occupied.
    busy: usize,
    /// The next dispatch starts its replica scan here, so consecutive
    /// batches spread across the group.
    replica_cursor: usize,
    /// The next drain starts its tenant scan here, so no tenant's queue
    /// monopolizes coalesced batches.
    tenant_cursor: usize,
    armed_flush: Option<u64>,
    recal_pending: u64,
    canary_pending: u64,
    /// Probe measurements not yet dispatched.
    probe_backlog: u64,
    /// (window index, probes spent in it) — the budget accumulator.
    probe_window: (u64, u32),
    /// Virtual time of the probe wake-up currently in the heap, if any.
    armed_probe_wake: Option<u64>,
    recals: u64,
    canaries: u64,
    probes: u64,
    hangs: u64,
    dispatches: u64,
    batch_requests: u64,
    hedges_fired: u64,
    hedge_wins: u64,
    duplicates: u64,
    last_completion_ns: u64,
    chip_queries: Option<u64>,
}

impl<'a> Sim<'a> {
    fn new(cfg: &'a Config) -> Self {
        assert!(!cfg.replicas.is_empty(), "need at least one replica");
        assert!(!cfg.tenants.is_empty(), "need at least one tenant");
        if let Some(timeout) = cfg.dispatch_timeout_ns {
            assert!(
                timeout > cfg.cost.base.service_ns(cfg.coalescer.max_batch),
                "the dispatch watchdog must outlast a clean full-precision full batch"
            );
            assert!(
                cfg.tenants
                    .iter()
                    .all(|t| t.deadline_ns.or(cfg.default_deadline_ns).is_some()),
                "a dispatch watchdog needs a deadline on every tenant: expiry is what drains \
                 the queues when every replica is dead"
            );
        } else {
            let scripted = cfg
                .replicas
                .iter()
                .any(|r| r.chaos.kill_at_ns.is_some() || r.chaos.hang_window_ns.is_some());
            assert!(
                cfg.hedge.is_none() && !scripted,
                "hedging and scripted replica kills or hangs need a dispatch watchdog"
            );
        }
        let gens = cfg
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                ArrivalGen::new(
                    t.process,
                    derive_seed(cfg.root_seed, ARRIVAL_STREAM + i as u64),
                )
            })
            .collect();
        let queues = cfg
            .tenants
            .iter()
            .map(|t| RequestQueue::new(t.queue_cap))
            .collect();
        let acc = cfg.tenants.iter().map(|_| TenantAcc::default()).collect();
        let replicas = cfg
            .replicas
            .iter()
            .map(|_| ReplicaState {
                breaker: CircuitBreaker::new(cfg.breaker),
                brownout: BrownoutController::new(cfg.brownout),
                busy: false,
                dispatches: 0,
                completions: 0,
                timeouts: 0,
                armed_wake: None,
            })
            .collect();
        let capacity: usize = cfg.tenants.iter().map(|t| t.queue_cap).sum();
        Sim {
            cfg,
            heap: EventHeap::new(),
            gens,
            queues,
            acc,
            replicas,
            legs: Vec::new(),
            batches: Vec::new(),
            breakers: cfg.dispatch_timeout_ns.is_some(),
            brownout: cfg.brownout.enter[0] <= capacity,
            hedge_tracker: cfg
                .hedge
                .map(|policy| HedgeDelayTracker::new(policy, cfg.tenants.len())),
            admission: BrownoutController::new(cfg.brownout),
            svc_rng: StdRng::seed_from_u64(derive_seed(cfg.root_seed, SERVICE_STREAM)),
            now: 0,
            next_id: 0,
            busy: 0,
            replica_cursor: 0,
            tenant_cursor: 0,
            armed_flush: None,
            recal_pending: 0,
            canary_pending: 0,
            probe_backlog: cfg.probes.map_or(0, |p| p.total),
            probe_window: (0, 0),
            armed_probe_wake: None,
            recals: 0,
            canaries: 0,
            probes: 0,
            hangs: 0,
            dispatches: 0,
            batch_requests: 0,
            hedges_fired: 0,
            hedge_wins: 0,
            duplicates: 0,
            last_completion_ns: 0,
            chip_queries: None,
        }
    }

    fn run(mut self, mut backend: Option<&mut ChipBackend<'_>>) -> ServingReport {
        if backend.is_some() {
            self.chip_queries = Some(0);
        }
        let cfg = self.cfg;
        for i in 0..self.gens.len() {
            let t0 = self.gens[i].next_after(0);
            if t0 < cfg.duration_ns {
                self.heap.schedule(t0, Ev::Arrival(i));
            }
        }
        for (start, ev) in [
            (cfg.recalibration.map(|r| r.start_ns), Ev::Recal),
            (cfg.canary.map(|c| c.start_ns), Ev::Canary),
        ] {
            if let Some(at) = start.filter(|&at| at < cfg.duration_ns) {
                self.heap.schedule(at, ev);
            }
        }
        if let Some(probes) = cfg.probes {
            if probes.total > 0 && probes.per_window > 0 {
                self.heap.schedule(probes.start_ns, Ev::ProbeWindow);
                self.armed_probe_wake = Some(probes.start_ns);
            }
        }

        while let Some((at, _seq, ev)) = self.heap.pop() {
            debug_assert!(at >= self.now, "virtual time must be monotone");
            self.now = at;
            match ev {
                Ev::Arrival(i) => self.on_arrival(i),
                Ev::Recal => {
                    self.recal_pending += 1;
                    let period = cfg.recalibration.map(|r| r.period_ns);
                    self.schedule_periodic(period, Ev::Recal);
                }
                Ev::Canary => {
                    self.canary_pending += 1;
                    let period = cfg.canary.map(|c| c.period_ns);
                    self.schedule_periodic(period, Ev::Canary);
                }
                Ev::ProbeWindow => self.armed_probe_wake = None,
                Ev::Flush => self.armed_flush = None,
                Ev::BreakerWake(r) => self.replicas[r].armed_wake = None,
                Ev::Done(id) => self.on_done(id, &mut backend),
                Ev::Timeout(id) => self.on_timeout(id),
                Ev::HedgeFire(b) => self.on_hedge_fire(b),
            }
            self.dispatch();
        }
        debug_assert!(self.queues.iter().all(|q| q.is_empty()), "run must drain");
        self.report()
    }

    /// Schedules the next occurrence of a periodic event, if it still
    /// falls inside the arrival window.
    fn schedule_periodic(&mut self, period_ns: Option<u64>, ev: Ev) {
        if let Some(period) = period_ns {
            let next = self.now.saturating_add(period);
            if next < self.cfg.duration_ns {
                self.heap.schedule(next, ev);
            }
        }
    }

    fn total_depth(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// The brownout signal: queued requests per replica the breakers
    /// consider dispatchable. Replica deaths shrink the denominator, so
    /// the same queue reads as deeper brownout — the group degrades
    /// earlier when capacity is gone.
    fn brownout_signal(&self, depth: usize) -> usize {
        let live = self
            .replicas
            .iter()
            .filter(|r| r.breaker.state() != BreakerState::Open)
            .count()
            .max(1);
        depth.div_ceil(live)
    }

    fn on_arrival(&mut self, i: usize) {
        self.acc[i].arrivals += 1;
        let shed = self.brownout && {
            let signal = self.brownout_signal(self.total_depth());
            let _ = self.admission.observe(self.now, signal);
            self.admission.shedding()
        };
        if shed {
            self.acc[i].brownout_shed += 1;
        } else {
            let deadline = self.cfg.tenants[i]
                .deadline_ns
                .or(self.cfg.default_deadline_ns);
            let req = ServeRequest {
                id: self.next_id,
                tenant: i,
                submitted_ns: self.now,
                deadline_ns: deadline.map_or(NO_DEADLINE, |d| self.now.saturating_add(d)),
            };
            self.next_id += 1;
            let _ = self.queues[i].push(req); // a full queue sheds
        }
        let next = self.gens[i].next_after(self.now);
        if next < self.cfg.duration_ns {
            self.heap.schedule(next, Ev::Arrival(i));
        }
    }

    /// Fills idle replicas: recalibration first (it is latency-insensitive
    /// but must not starve), then canary comparison batches (they gate a
    /// promotion decision), then coalesced inference batches; calibration
    /// probes only piggyback into slots the coalescer left idle.
    /// Consecutive dispatches rotate across replicas — the load balancing
    /// a real replica group does, and what spreads traffic onto a replica
    /// *before* anyone knows it is sick, so its breaker has something to
    /// observe.
    fn dispatch(&mut self) {
        let n = self.replicas.len();
        while self.busy < n {
            if self.recal_pending + self.canary_pending > 0 {
                let Some(r) = self.pick_replica() else { return };
                let base = &self.cfg.cost.base;
                let service = if self.recal_pending > 0 {
                    self.recal_pending -= 1;
                    self.recals += 1;
                    base.recal_service_ns
                } else {
                    self.canary_pending -= 1;
                    self.canaries += 1;
                    base.service_ns(self.cfg.canary.map_or(1, |c| c.samples))
                };
                let hang = self.draw_hang();
                self.replica_cursor = (r + 1) % n;
                self.occupy(r, None, ServingTier::F64, false, service + hang);
                continue;
            }
            let depth = self.total_depth();
            let oldest = self
                .queues
                .iter()
                .filter_map(|q| q.front_submitted_ns())
                .min();
            match self.cfg.coalescer.decide(self.now, depth, oldest) {
                DrainDecision::Idle => {
                    if self.try_probe() {
                        continue;
                    }
                    return;
                }
                DrainDecision::WaitUntil(deadline) => {
                    // Arm one flush timer per live deadline; an already
                    // armed earlier timer covers this wait too.
                    if self.armed_flush.is_none_or(|d| deadline < d) {
                        self.heap.schedule(deadline, Ev::Flush);
                        self.armed_flush = Some(deadline);
                    }
                    // The slot would otherwise sit idle until the flush:
                    // probe time for free (the probe may outlast the wait —
                    // that bounded collision is the piggybacking cost).
                    if self.try_probe() {
                        continue;
                    }
                    return;
                }
                DrainDecision::Serve(count) => {
                    // No idle, admitting replica: the batch waits for the
                    // next Done / Timeout / BreakerWake.
                    let Some(r) = self.pick_replica() else { return };
                    if self.brownout {
                        let signal = self.brownout_signal(depth);
                        let _ = self.replicas[r].brownout.observe(self.now, signal);
                    }
                    let requests = self.drain(count);
                    if requests.is_empty() {
                        // Everything drained had already expired (e.g. a
                        // flush timer fired long after the oldest request's
                        // deadline). The queues changed, so re-decide.
                        continue;
                    }
                    if self.breakers {
                        let admitted = self.replicas[r].breaker.allow(self.now);
                        debug_assert!(admitted, "would_allow implies allow");
                    }
                    self.replica_cursor = (r + 1) % n;
                    let b = self.batches.len();
                    self.batches.push(Batch {
                        requests,
                        primary: r,
                        live_legs: 0,
                        resolved: false,
                        hedged: false,
                    });
                    self.start_leg(r, b, false);
                    if let Some(tracker) = self.hedge_tracker.as_ref() {
                        // Hedge once *every* member has outlived its own
                        // tenant's rolling tail delay.
                        let requests = &self.batches[b].requests;
                        let delay = (0..self.queues.len())
                            .filter(|&t| requests.iter().any(|req| req.tenant == t))
                            .map(|t| tracker.delay_ns(t))
                            .max()
                            .unwrap_or(0);
                        self.heap
                            .schedule(self.now.saturating_add(delay), Ev::HedgeFire(b));
                    }
                }
            }
        }
    }

    /// The next idle replica the breakers admit, scanning round-robin from
    /// the cursor. A replica blocked by an open breaker arms a wake at its
    /// cooldown expiry so queued work is not stranded on a quiet heap.
    fn pick_replica(&mut self) -> Option<usize> {
        let n = self.replicas.len();
        for k in 0..n {
            let r = (self.replica_cursor + k) % n;
            let rep = &mut self.replicas[r];
            if rep.busy {
                continue;
            }
            if self.breakers && !rep.breaker.would_allow(self.now) {
                if let Some(w) = rep.breaker.wake_at_ns() {
                    if rep.armed_wake.is_none_or(|t| w < t) {
                        self.heap.schedule(w, Ev::BreakerWake(r));
                        rep.armed_wake = Some(w);
                    }
                }
                continue;
            }
            return Some(r);
        }
        None
    }

    /// Draws a random fault hang for one dispatch from the service stream.
    fn draw_hang(&mut self) -> u64 {
        let hang = self.cfg.cost.base.draw_hang_ns(&mut self.svc_rng);
        if hang > 0 {
            self.hangs += 1;
        }
        hang
    }

    /// Tries to piggyback one calibration probe into an idle slot. Returns
    /// whether a probe was dispatched. When the backlog is live but this
    /// window's budget is spent, arms a wake-up at the next window opening
    /// so an otherwise-quiet heap still drains the backlog.
    fn try_probe(&mut self) -> bool {
        let Some(p) = self.cfg.probes else {
            return false;
        };
        if self.probe_backlog == 0 || p.per_window == 0 || self.now < p.start_ns {
            return false;
        }
        let idx = (self.now - p.start_ns) / p.window_ns;
        if idx > self.probe_window.0 {
            self.probe_window = (idx, 0);
        }
        if self.probe_window.1 >= p.per_window {
            let next_window = p.start_ns + (idx + 1).saturating_mul(p.window_ns);
            if self.armed_probe_wake.is_none_or(|t| next_window < t) {
                self.heap.schedule(next_window, Ev::ProbeWindow);
                self.armed_probe_wake = Some(next_window);
            }
            return false;
        }
        let Some(r) = self.pick_replica() else {
            return false;
        };
        self.probe_window.1 += 1;
        self.probe_backlog -= 1;
        self.probes += 1;
        // No hang draw: a probe is a single watchdog-guarded measurement,
        // and the real controller retries it outside the serving path.
        self.replica_cursor = (r + 1) % self.replicas.len();
        self.occupy(
            r,
            None,
            ServingTier::F64,
            false,
            self.cfg.cost.base.probe_service_ns,
        );
        true
    }

    /// Pops up to `n` servable requests, visiting tenant queues round-robin
    /// from a persistent cursor so no tenant's queue monopolizes coalesced
    /// batches. Expiry is checked *at drain time*: a request whose deadline
    /// has passed is dropped and counted as expired instead of burning a
    /// batch slot on an answer its caller abandoned.
    fn drain(&mut self, n: usize) -> Vec<ServeRequest> {
        let tenants = self.queues.len();
        let mut batch = Vec::with_capacity(n);
        'outer: while batch.len() < n {
            for k in 0..tenants {
                let i = (self.tenant_cursor + k) % tenants;
                if let Some(req) = self.queues[i].pop_front() {
                    self.tenant_cursor = (i + 1) % tenants;
                    if req.expired(self.now) {
                        self.acc[req.tenant].expired += 1;
                    } else {
                        batch.push(req);
                    }
                    continue 'outer;
                }
            }
            break; // every queue empty
        }
        batch
    }

    /// Starts one leg of batch `b` on replica `r`, charged at the tier the
    /// replica's brownout controller picks, guarded by the watchdog.
    fn start_leg(&mut self, r: usize, b: usize, is_hedge: bool) {
        let len = self.batches[b].requests.len();
        let tier = self.replicas[r].brownout.drain_tier();
        self.batches[b].live_legs += 1;
        self.replicas[r].dispatches += 1;
        let service = self.cfg.cost.service_ns(tier, len) + self.draw_hang();
        let id = self.occupy(r, Some(b), tier, is_hedge, service);
        if let Some(timeout) = self.cfg.dispatch_timeout_ns {
            self.heap.schedule(self.now + timeout, Ev::Timeout(id));
        }
        self.dispatches += 1;
        self.batch_requests += len as u64;
    }

    /// Occupies replica `r` with one leg — of `batch`, or background work
    /// when `None` — for `service_ns`, schedules its completion and returns
    /// its id. A batch leg is subject to the replica's scripted chaos: one
    /// straddling the hang window restarts once the link un-wedges, and one
    /// on a replica killed before its completion instant never completes —
    /// only the watchdog gets it back. Background work is not
    /// watchdog-guarded, so it always completes.
    fn occupy(
        &mut self,
        r: usize,
        batch: Option<usize>,
        tier: ServingTier,
        is_hedge: bool,
        service_ns: u64,
    ) -> usize {
        let id = self.legs.len();
        self.legs.push(Leg {
            replica: r,
            batch,
            tier,
            live: true,
            is_hedge,
        });
        self.replicas[r].busy = true;
        self.busy += 1;
        let mut done = self.now + service_ns;
        if batch.is_some() {
            let chaos = self.cfg.replicas[r].chaos;
            if let Some(release) = chaos.hang_release(self.now, done) {
                done = release + service_ns;
            }
            if chaos.kill_at_ns.is_some_and(|k| done >= k) {
                return id;
            }
        }
        self.heap.schedule(done, Ev::Done(id));
        id
    }

    /// Marks leg `id` finished and frees its replica.
    fn release(&mut self, id: usize) {
        let leg = &mut self.legs[id];
        leg.live = false;
        self.replicas[leg.replica].busy = false;
        self.busy -= 1;
    }

    fn on_done(&mut self, id: usize, backend: &mut Option<&mut ChipBackend<'_>>) {
        let Leg {
            replica: r,
            batch,
            tier,
            live,
            is_hedge,
        } = self.legs[id];
        if !live {
            return; // abandoned by the watchdog; the late completion is void
        }
        self.release(id);
        self.last_completion_ns = self.last_completion_ns.max(self.now);
        let Some(b) = batch else { return }; // background work
        let batch = &mut self.batches[b];
        batch.live_legs -= 1;
        let len = batch.requests.len();
        let first = !batch.resolved;
        batch.resolved = true;
        let rep = &mut self.replicas[r];
        rep.completions += 1;
        if self.breakers {
            rep.breaker.record_success(self.now);
        }
        rep.brownout.record_served(tier, len as u64);
        if let Some(chip) = backend.as_deref_mut() {
            let spent = chip.serve(len);
            *self.chip_queries.get_or_insert(0) += spent;
        }
        if first {
            if is_hedge {
                self.hedge_wins += 1;
            }
            for req in &self.batches[b].requests {
                let latency = (self.now - req.submitted_ns) as f64;
                let acc = &mut self.acc[req.tenant];
                acc.completed += 1;
                acc.latencies_ns.push(latency);
                if let Some(tracker) = self.hedge_tracker.as_mut() {
                    tracker.record(req.tenant, latency);
                }
            }
        } else {
            // First completion wins: a later leg of the same batch serves
            // only duplicates, billed to the hedge ledger.
            self.duplicates += len as u64;
        }
        if self.batches[b].live_legs == 0 {
            self.batches[b].requests = Vec::new();
        }
    }

    fn on_timeout(&mut self, id: usize) {
        let Leg {
            replica: r,
            batch,
            live,
            ..
        } = self.legs[id];
        if !live {
            return; // completed before the watchdog fired
        }
        let b = batch.expect("only batch legs are watchdog-guarded");
        self.release(id);
        let rep = &mut self.replicas[r];
        rep.timeouts += 1;
        rep.breaker.record_failure(self.now);
        let batch = &mut self.batches[b];
        batch.live_legs -= 1;
        if batch.live_legs > 0 {
            return;
        }
        let requests = std::mem::take(&mut batch.requests);
        if !batch.resolved {
            // No leg can serve this batch any more: rescue the requests.
            // Requeued at the *front* (in original order) so the wait they
            // already paid keeps counting toward their deadlines; requests
            // already past theirs are cancelled as expired here.
            batch.resolved = true;
            for req in requests.iter().rev() {
                if req.expired(self.now) {
                    self.acc[req.tenant].expired += 1;
                } else {
                    let _ = self.queues[req.tenant].requeue_front(*req); // full queue sheds
                }
            }
        }
    }

    fn on_hedge_fire(&mut self, b: usize) {
        let batch = &self.batches[b];
        if batch.resolved || batch.hedged {
            return; // already served, rescued, or hedged — stale timer
        }
        debug_assert!(batch.live_legs > 0, "an unresolved batch must have a leg");
        let primary = batch.primary;
        let candidate = (0..self.replicas.len()).find(|&r| {
            r != primary && !self.replicas[r].busy && self.replicas[r].breaker.would_allow(self.now)
        });
        if let Some(r) = candidate {
            let admitted = self.replicas[r].breaker.allow(self.now);
            debug_assert!(admitted, "would_allow implies allow");
            self.batches[b].hedged = true;
            self.hedges_fired += 1;
            self.start_leg(r, b, true);
        } else if let Some(tracker) = self.hedge_tracker.as_ref() {
            // No healthy idle replica right now — retry shortly instead of
            // abandoning the batch to the full watchdog budget (replicas
            // free up on microsecond scales; the hedge window is the tail
            // budget). The retry loop is bounded: once the primary's
            // watchdog fires the batch resolves (served or requeued) and
            // the pending HedgeFire goes stale.
            let retry = self
                .now
                .saturating_add(tracker.policy().min_delay_ns.max(1));
            self.heap.schedule(retry, Ev::HedgeFire(b));
        }
    }

    fn report(self) -> ServingReport {
        let makespan_ns = self.last_completion_ns.max(1);
        let per_tenant: Vec<TenantServingStats> = self
            .cfg
            .tenants
            .iter()
            .zip(&self.acc)
            .zip(&self.queues)
            .map(|((tenant, acc), queue)| {
                TenantServingStats::from_samples(
                    &tenant.name,
                    acc.arrivals,
                    acc.completed,
                    queue.shed() + acc.brownout_shed,
                    acc.expired,
                    queue.peak_depth() as u64,
                    &acc.latencies_ns,
                    makespan_ns,
                )
            })
            .collect();
        let all_latencies: Vec<f64> = self
            .acc
            .iter()
            .flat_map(|a| a.latencies_ns.iter().copied())
            .collect();
        let aggregate = TenantServingStats::from_samples(
            "all",
            self.acc.iter().map(|a| a.arrivals).sum(),
            self.acc.iter().map(|a| a.completed).sum(),
            per_tenant.iter().map(|t| t.shed).sum(),
            self.acc.iter().map(|a| a.expired).sum(),
            self.queues
                .iter()
                .map(|q| q.peak_depth() as u64)
                .max()
                .unwrap_or(0),
            &all_latencies,
            makespan_ns,
        );
        let replicas = self
            .cfg
            .replicas
            .iter()
            .zip(&self.replicas)
            .map(|(spec, r)| ReplicaStats {
                name: spec.name.clone(),
                dispatches: r.dispatches,
                completions: r.completions,
                timeouts: r.timeouts,
                final_breaker: r.breaker.state(),
                breaker_transitions: r.breaker.transitions().to_vec(),
                tier_served: r.brownout.served(),
                tier_transitions: r.brownout.transitions().len() as u64,
            })
            .collect();
        let mean_batch = if self.dispatches > 0 {
            self.batch_requests as f64 / self.dispatches as f64
        } else {
            f64::NAN
        };
        ServingReport {
            label: self.cfg.label.clone(),
            root_seed: self.cfg.root_seed,
            duration_ns: self.cfg.duration_ns,
            makespan_ns,
            max_batch: self.cfg.coalescer.max_batch,
            max_wait_ns: self.cfg.coalescer.max_wait_ns,
            eval_queries: aggregate.completed,
            hedge_queries: self.duplicates,
            tenants: per_tenant,
            aggregate,
            replicas,
            batches: self.dispatches,
            mean_batch,
            hangs: self.hangs,
            recals: self.recals,
            probes: self.probes,
            canaries: self.canaries,
            hedges_fired: self.hedges_fired,
            hedge_wins: self.hedge_wins,
            duplicates: self.duplicates,
            chip_queries: self.chip_queries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg(seed: u64) -> SimConfig {
        SimConfig::new(seed, 20_000_000) // 20 virtual ms
            .with_label("smoke")
            .with_tenant(TenantLoad::new(
                "alice",
                ArrivalProcess::Poisson { rate_hz: 60_000.0 },
            ))
            .with_tenant(TenantLoad::new(
                "bob",
                ArrivalProcess::Bursty {
                    on_rate_hz: 120_000.0,
                    off_rate_hz: 5_000.0,
                    mean_on_ns: 2_000_000.0,
                    mean_off_ns: 2_000_000.0,
                },
            ))
    }

    /// Regression test for the stream-seed derivation: stream 0 must not
    /// degenerate to the root, and no stream may collide with another
    /// stream's seed under a shifted root (the old `root ^ stream·γ`
    /// pre-mix had `derive_seed(r ^ s·γ, 0) == derive_seed(r, s)` for
    /// every root `r` and stream `s`).
    #[test]
    fn stream_seeds_are_distinct_and_uncorrelated_with_root() {
        const OLD_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
        let streams = [
            0u64,
            ARRIVAL_STREAM,
            ARRIVAL_STREAM + 1,
            ARRIVAL_STREAM + 7,
            SERVICE_STREAM,
            INPUT_STREAM,
        ];
        for root in [0u64, 1, u64::MAX] {
            let seeds: Vec<u64> = streams.iter().map(|&s| derive_seed(root, s)).collect();
            for (i, &seed) in seeds.iter().enumerate() {
                assert_ne!(seed, root, "stream {:#x} echoed root {root:#x}", streams[i]);
                for (j, &other) in seeds.iter().enumerate().skip(i + 1) {
                    assert_ne!(
                        seed, other,
                        "streams {:#x} and {:#x} collide under root {root:#x}",
                        streams[i], streams[j]
                    );
                }
            }
            // The cross-stream collision family of the old derivation:
            // stream 0 under a γ-shifted root must NOT reproduce stream s
            // under the original root.
            for &s in &streams[1..] {
                assert_ne!(
                    derive_seed(root ^ s.wrapping_mul(OLD_GAMMA), 0),
                    derive_seed(root, s),
                    "stream 0 under a shifted root collides with stream {s:#x}"
                );
            }
        }
    }

    #[test]
    fn conserves_requests() {
        let report = run(&smoke_cfg(11));
        for t in report.tenants.iter().chain([&report.aggregate]) {
            assert_eq!(
                t.arrivals,
                t.completed + t.shed + t.expired,
                "tenant {}: every arrival is served, shed, or expired",
                t.tenant
            );
        }
        assert!(report.aggregate.completed > 0);
        assert_eq!(report.aggregate.expired, 0, "no deadlines configured");
        // Uncoalesced: one request per dispatch.
        assert_eq!(report.aggregate.completed, report.batches);
    }

    #[test]
    fn expired_requests_are_dropped_at_drain_not_served() {
        // One slow worker under overload with a tight deadline: requests
        // queue far longer than 300 us, so drains must drop them as
        // expired instead of serving answers their callers abandoned.
        let strict = SimConfig::new(17, 20_000_000)
            .with_tenant(
                TenantLoad::new(
                    "dl",
                    ArrivalProcess::Poisson {
                        rate_hz: 2_500_000.0,
                    },
                )
                .with_deadline_ns(300_000),
            )
            .with_coalescer(CoalescePolicy::new(16, 100_000));
        let report = run(&strict);
        assert!(
            report.aggregate.expired > 0,
            "overload must expire requests"
        );
        assert_eq!(
            report.aggregate.arrivals,
            report.aggregate.completed + report.aggregate.shed + report.aggregate.expired
        );
        // Every latency actually recorded beat its deadline: p999 of the
        // *served* requests is bounded by the relative deadline (service
        // starts before expiry; latency counts completion, so allow one
        // full-batch service on top).
        let ceiling = 300_000.0 + (7_400 + 16 * 250) as f64;
        assert!(
            report.aggregate.p999_ns <= ceiling,
            "served requests must have been drained before expiry: p999 {}",
            report.aggregate.p999_ns
        );
        // Bitwise replay holds with deadlines in play.
        assert_eq!(report.to_json(), run(&strict).to_json());
    }

    #[test]
    fn identical_seeds_replay_bitwise() {
        let a = run(&smoke_cfg(42)).to_json();
        let b = run(&smoke_cfg(42)).to_json();
        assert_eq!(a, b);
        let c = run(&smoke_cfg(43)).to_json();
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn coalescing_amortizes_under_overload() {
        // Offered load ~4x one worker's uncoalesced capacity
        // (capacity ≈ 1e9/7650 ≈ 130k rps at the calibrated model).
        let overload = |coalescer| {
            let cfg = SimConfig::new(5, 50_000_000)
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
            "coalesced {} rps vs uncoalesced {} rps",
            co.aggregate.throughput_rps,
            un.aggregate.throughput_rps
        );
        assert!(co.mean_batch > 4.0, "mean batch {}", co.mean_batch);
        assert!(
            co.aggregate.p99_ns <= un.aggregate.p99_ns,
            "under overload, higher drain rate must not worsen p99: {} vs {}",
            co.aggregate.p99_ns,
            un.aggregate.p99_ns
        );
    }

    #[test]
    fn max_wait_bounds_partial_batch_latency() {
        // Trickle traffic far below one batch per deadline: every request
        // is served by a deadline flush, so p50 ≈ max_wait + service.
        let cfg = SimConfig::new(9, 50_000_000)
            .with_tenant(TenantLoad::new(
                "trickle",
                ArrivalProcess::Poisson { rate_hz: 2_000.0 },
            ))
            .with_coalescer(CoalescePolicy::new(64, 200_000));
        let report = run(&cfg);
        assert!(report.aggregate.completed > 50);
        let ceiling = 200_000.0 + 64.0 * 250.0 + 7_400.0;
        assert!(
            report.aggregate.p50_ns <= ceiling,
            "p50 {} must be bounded by the flush deadline + service",
            report.aggregate.p50_ns
        );
        assert!(
            report.aggregate.p50_ns >= 100_000.0,
            "trickle requests should actually wait near the deadline, p50 {}",
            report.aggregate.p50_ns
        );
    }

    #[test]
    fn tiny_queues_shed_under_overload() {
        let cfg = SimConfig::new(3, 10_000_000).with_tenant(
            TenantLoad::new("flood", ArrivalProcess::Poisson { rate_hz: 600_000.0 })
                .with_queue_cap(8),
        );
        let report = run(&cfg);
        assert!(report.aggregate.shed > 0, "cap 8 under 600k rps must shed");
        assert_eq!(
            report.aggregate.arrivals,
            report.aggregate.completed + report.aggregate.shed
        );
        assert!(report.aggregate.peak_queue_depth <= 8);
    }

    #[test]
    fn recalibration_steals_capacity() {
        let base = smoke_cfg(21);
        let with_recal = smoke_cfg(21).with_recalibration(RecalTraffic {
            start_ns: 1_000_000,
            period_ns: 5_000_000,
        });
        let a = run(&base);
        let b = run(&with_recal);
        assert_eq!(a.recals, 0);
        assert_eq!(b.recals, 4, "20 ms window, first at 1 ms, every 5 ms");
        assert!(
            b.aggregate.p99_ns >= a.aggregate.p99_ns,
            "recal passes must not improve inference latency: {} vs {}",
            b.aggregate.p99_ns,
            a.aggregate.p99_ns
        );
    }

    #[test]
    fn probe_budget_bounds_the_latency_cost() {
        // A full drift-recalibration sweep piggybacked behind live load.
        // Probes only take slots the coalescer left idle, so the p99 hit
        // is bounded by the window budget; an unbudgeted flood (everything
        // in one window) hurts the tail strictly more.
        let sweep = 400u64;
        let with_budget = |per_window: u32, window_ns: u64| {
            let cfg = smoke_cfg(55)
                .with_coalescer(CoalescePolicy::new(16, 100_000))
                .with_probes(ProbeTraffic {
                    start_ns: 500_000,
                    total: sweep,
                    per_window,
                    window_ns,
                });
            run(&cfg)
        };
        let base = run(&smoke_cfg(55).with_coalescer(CoalescePolicy::new(16, 100_000)));
        let budgeted = with_budget(4, 500_000);
        let flood = with_budget(sweep as u32, 1 << 40);
        assert_eq!(base.probes, 0);
        assert_eq!(budgeted.probes, sweep, "the whole sweep must complete");
        assert_eq!(flood.probes, sweep);
        assert!(
            budgeted.aggregate.p99_ns <= flood.aggregate.p99_ns,
            "budgeted probes must not hurt the tail more than a flood: {} vs {}",
            budgeted.aggregate.p99_ns,
            flood.aggregate.p99_ns
        );
        // The budgeted run keeps p99 within 1.5x of the probe-free
        // baseline — the ISSUE's online-recalibration latency bound.
        assert!(
            budgeted.aggregate.p99_ns <= 1.5 * base.aggregate.p99_ns,
            "budgeted p99 {} vs baseline {}",
            budgeted.aggregate.p99_ns,
            base.aggregate.p99_ns
        );
        // Inference conservation is untouched by probe traffic.
        assert_eq!(
            budgeted.aggregate.arrivals,
            budgeted.aggregate.completed + budgeted.aggregate.shed
        );
    }

    #[test]
    fn probe_backlog_drains_even_on_a_quiet_farm() {
        // No inference traffic beyond a trickle: the window wake-ups alone
        // must walk the whole backlog (7 probes, 2 per 1 ms window).
        let cfg = SimConfig::new(8, 10_000_000)
            .with_tenant(TenantLoad::new(
                "trickle",
                ArrivalProcess::Poisson { rate_hz: 500.0 },
            ))
            .with_probes(ProbeTraffic {
                start_ns: 0,
                total: 7,
                per_window: 2,
                window_ns: 1_000_000,
            });
        let report = run(&cfg);
        assert_eq!(report.probes, 7);
        // 7 probes at 2/window need 4 windows; the last begins at 3 ms.
        assert!(report.makespan_ns >= 3_000_000);
    }

    #[test]
    fn canaries_are_periodic_and_replay_bitwise() {
        let cfg = smoke_cfg(63).with_canary(CanaryTraffic {
            start_ns: 2_000_000,
            period_ns: 5_000_000,
            samples: 32,
        });
        let a = run(&cfg);
        assert_eq!(a.canaries, 4, "20 ms window, first at 2 ms, every 5 ms");
        assert_eq!(a.to_json(), run(&cfg).to_json());
        // Canary batches consume worker time, so they cannot improve p99.
        let base = run(&smoke_cfg(63));
        assert!(a.aggregate.p99_ns >= base.aggregate.p99_ns);
    }

    #[test]
    fn hangs_inflate_the_tail() {
        let mut calm = smoke_cfg(33);
        calm.label = "calm".into();
        let mut hangy = smoke_cfg(33);
        hangy.cost.base = hangy.cost.base.with_hangs(0.01, 3_000_000);
        hangy.label = "hangy".into();
        let a = run(&calm);
        let b = run(&hangy);
        assert_eq!(a.hangs, 0);
        assert!(b.hangs > 0);
        assert!(
            b.aggregate.p999_ns > a.aggregate.p999_ns,
            "1% 3ms hangs must be visible at p999: {} vs {}",
            b.aggregate.p999_ns,
            a.aggregate.p999_ns
        );
    }

    fn healthy_cfg(seed: u64) -> ResilientConfig {
        ResilientConfig::new(seed, 20_000_000)
            .with_label("healthy")
            .with_replica(ReplicaSpec::clean("r0"))
            .with_replica(ReplicaSpec::clean("r1"))
            .with_replica(ReplicaSpec::clean("r2"))
            .with_tenant(TenantLoad::new(
                "alice",
                ArrivalProcess::Poisson { rate_hz: 60_000.0 },
            ))
            .with_tenant(TenantLoad::new(
                "bob",
                ArrivalProcess::Poisson { rate_hz: 40_000.0 },
            ))
    }

    #[test]
    fn healthy_group_serves_everything_and_replays_bitwise() {
        let report = run(&healthy_cfg(7));
        assert!(report.conserves_requests());
        assert_eq!(
            report.lost(),
            0,
            "a healthy, underloaded group loses nothing"
        );
        assert_eq!(report.duplicates, 0, "no failures → no hedge races");
        assert_eq!(report.eval_queries, report.aggregate.completed);
        for r in &report.replicas {
            assert_eq!(r.final_breaker, BreakerState::Closed);
            assert!(r.breaker_transitions.is_empty());
            assert_eq!(r.timeouts, 0);
        }
        assert_eq!(report.to_json(), run(&healthy_cfg(7)).to_json());
        assert_ne!(report.to_json(), run(&healthy_cfg(8)).to_json());
    }

    #[test]
    fn killed_replica_trips_its_breaker_and_work_reroutes() {
        let cfg = healthy_cfg(11)
            .with_label("kill")
            .with_replica(ReplicaSpec::clean("extra"));
        let mut cfg = cfg;
        cfg.replicas[0].chaos = ReplicaChaos::none().kill_at(2_000_000);
        let report = run(&cfg);
        assert!(report.conserves_requests());
        let dead = &report.replicas[0];
        assert_eq!(
            dead.final_breaker,
            BreakerState::Open,
            "killed replica ends open"
        );
        let first_open = dead
            .breaker_transitions
            .iter()
            .find(|t| t.to == BreakerState::Open)
            .expect("breaker must open after the kill");
        assert!(first_open.at_ns >= 2_000_000, "cannot open before the kill");
        // Everything still lands (deadlines are 5 ms, watchdog 500 us, and
        // three healthy replicas remain).
        assert_eq!(
            report.aggregate.expired + report.aggregate.shed,
            report.lost()
        );
        assert!(report.aggregate.completed > 0);
    }

    #[test]
    fn brownout_engages_under_overload_and_serves_cheaper_tiers() {
        let cfg = ResilientConfig::new(3, 20_000_000)
            .with_label("overload")
            .with_replica(ReplicaSpec::clean("r0"))
            .with_tenant(
                TenantLoad::new("flood", ArrivalProcess::Poisson { rate_hz: 900_000.0 })
                    .with_queue_cap(256),
            );
        let report = run(&cfg);
        assert!(report.conserves_requests());
        let r = &report.replicas[0];
        assert!(
            r.tier_served[1] + r.tier_served[2] > 0,
            "sustained overload must push serving off the f64 tier: {:?}",
            r.tier_served
        );
        assert!(r.tier_transitions > 0);
        // The control arm at the same load never leaves f64.
        let control = run(&cfg.clone().without_resilience());
        assert_eq!(control.replicas[0].tier_served[1], 0);
        assert_eq!(control.replicas[0].tier_served[2], 0);
    }

    #[test]
    fn hedging_dedups_and_ledger_attributes_duplicates() {
        // Random 2 ms hangs on 2% of dispatches: hung dispatches outlive
        // the hedge delay, the hedge serves, and the hung leg completes
        // later as a pure duplicate.
        let mut cfg = healthy_cfg(19).with_label("hedgy");
        cfg.cost.base = cfg.cost.base.with_hangs(0.02, 2_000_000);
        cfg.dispatch_timeout_ns = Some(4_000_000); // hangs finish before the watchdog
        let report = run(&cfg);
        assert!(report.conserves_requests());
        assert!(report.hedges_fired > 0, "2% hangs must trigger hedges");
        assert!(
            report.duplicates > 0,
            "slow legs must complete as duplicates"
        );
        assert_eq!(
            report.hedge_queries, report.duplicates,
            "every duplicate completion is attributed to the hedge ledger"
        );
        assert_eq!(report.eval_queries, report.aggregate.completed);
        assert_eq!(report.to_json(), run(&cfg).to_json());
    }
}
