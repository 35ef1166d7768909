//! Serving-resilience building blocks: rolling outcome windows, per-replica
//! circuit breakers, brownout tier control, and hedge-delay tracking.
//!
//! Everything in this module is pure bookkeeping over **virtual-nanosecond**
//! timestamps supplied by the caller — no clocks, no threads, no I/O — so a
//! resilience decision (trip a breaker, hedge a dispatch, step down a tier)
//! is a pure function of the event history, and a replica-failure chaos
//! scenario replays byte-identically at any `PHOTON_THREADS`. The
//! discrete-event simulator (`photon-sim`) wires these pieces into its
//! event loop; `DESIGN.md` ("Serving resilience") has the full state
//! machines.
//!
//! ```text
//!            failures ≥ open_after                cooldown_ns elapses
//! Closed ───────────────────────────▶ Open ──────────────────────────▶ HalfOpen
//!   ▲                                  ▲                                  │
//!   │    half_open_successes probes    │        any probe failure         │
//!   └──────────────────────────────────┼──────────────────────────────────┤
//!                                      └──────────────────────────────────┘
//! ```

use std::collections::VecDeque;
use std::fmt;

use photon_core::{nan_last_cmp, quantile_of_ranked};

/// A bounded rolling window of boolean outcomes (`true` = success) with a
/// consecutive-success streak — the shared window math behind both the
/// farm's [`HealthMonitor`](crate::HealthMonitor) and the serving layer's
/// [`CircuitBreaker`].
#[derive(Debug, Clone)]
pub struct RollingWindow {
    cap: usize,
    window: VecDeque<bool>,
    ok_streak: u32,
}

impl RollingWindow {
    /// An empty window holding at most `cap` outcomes (`cap` is clamped to
    /// at least 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        RollingWindow {
            cap,
            window: VecDeque::with_capacity(cap),
            ok_streak: 0,
        }
    }

    /// Records one outcome, evicting the oldest once the window is full.
    pub fn push(&mut self, ok: bool) {
        self.window.push_back(ok);
        while self.window.len() > self.cap {
            self.window.pop_front();
        }
        self.ok_streak = if ok {
            self.ok_streak.saturating_add(1)
        } else {
            0
        };
    }

    /// Failures currently inside the window.
    pub fn failures(&self) -> u32 {
        self.window.iter().filter(|&&b| !b).count() as u32
    }

    /// Consecutive successes ending at the newest outcome (counted across
    /// evictions: the streak is about *recent history*, not window
    /// contents).
    pub fn ok_streak(&self) -> u32 {
        self.ok_streak
    }

    /// Outcomes currently held.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether no outcomes are held.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Wipes the window *and* the streak — the fresh-slate reset both
    /// state machines apply on recovery, so pre-recovery failures can
    /// never count toward a fresh degradation.
    pub fn clear(&mut self) {
        self.window.clear();
        self.ok_streak = 0;
    }
}

/// Where a replica's circuit breaker sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Dispatching normally; outcomes feed the rolling window.
    Closed,
    /// Tripped: no dispatches until the virtual-time cooldown expires.
    Open,
    /// Cooldown expired: serial probe dispatches test the replica.
    HalfOpen,
}

impl BreakerState {
    /// Stable lower-case label used in reports and trace events.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Thresholds driving one replica's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Rolling window length, in dispatch outcomes.
    pub window: usize,
    /// Failures inside the window that trip `Closed → Open`.
    pub open_after: u32,
    /// Virtual nanoseconds an open breaker holds before probing.
    pub cooldown_ns: u64,
    /// Consecutive successful half-open probes that re-close the breaker.
    pub half_open_successes: u32,
}

impl BreakerPolicy {
    /// The default breaker: window of 8 dispatches, trip at 3 failures,
    /// 2 ms cooldown, 2 clean probes to re-close.
    pub fn standard() -> Self {
        BreakerPolicy {
            window: 8,
            open_after: 3,
            cooldown_ns: 2_000_000,
            half_open_successes: 2,
        }
    }

    /// A breaker that never trips — the "no-resilience" control arm for
    /// chaos comparisons.
    pub fn disabled() -> Self {
        BreakerPolicy {
            open_after: u32::MAX,
            ..BreakerPolicy::standard()
        }
    }
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy::standard()
    }
}

/// One breaker state change, stamped in virtual time — the deterministic
/// audit trail the chaos test asserts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    /// Virtual time of the transition.
    pub at_ns: u64,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

/// Per-replica circuit breaker over dispatch outcomes.
///
/// Driven entirely by the caller's virtual clock: [`allow`](Self::allow)
/// gates dispatch, [`record_success`](Self::record_success) /
/// [`record_failure`](Self::record_failure) feed completions and watchdog
/// timeouts back in. Half-open probes are *serial*: one probe dispatch at a
/// time, so a flapping replica cannot absorb a burst of real traffic while
/// being tested.
#[derive(Debug)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    window: RollingWindow,
    state: BreakerState,
    open_until_ns: u64,
    probe_inflight: bool,
    probe_successes: u32,
    transitions: Vec<BreakerTransition>,
}

impl CircuitBreaker {
    /// A fresh, closed breaker.
    pub fn new(policy: BreakerPolicy) -> Self {
        CircuitBreaker {
            policy,
            window: RollingWindow::new(policy.window),
            state: BreakerState::Closed,
            open_until_ns: 0,
            probe_inflight: false,
            probe_successes: 0,
            transitions: Vec::new(),
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The transition log, oldest first.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }

    fn transition(&mut self, at_ns: u64, to: BreakerState) {
        let from = self.state;
        if from == to {
            return;
        }
        self.state = to;
        self.transitions.push(BreakerTransition { at_ns, from, to });
    }

    /// Whether a new dispatch may go to this replica at `now_ns`. An open
    /// breaker whose cooldown has expired transitions to `HalfOpen` here
    /// and admits the first probe; a half-open breaker admits one probe at
    /// a time.
    pub fn allow(&mut self, now_ns: u64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now_ns >= self.open_until_ns {
                    self.transition(now_ns, BreakerState::HalfOpen);
                    self.probe_successes = 0;
                    self.probe_inflight = true;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                if self.probe_inflight {
                    false
                } else {
                    self.probe_inflight = true;
                    true
                }
            }
        }
    }

    /// Whether [`allow`](Self::allow) *would* admit a dispatch at `now_ns`,
    /// without consuming the half-open probe slot or transitioning state.
    /// Lets a scheduler scan candidate replicas and spend `allow` only on
    /// the one it actually picks.
    pub fn would_allow(&self, now_ns: u64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => now_ns >= self.open_until_ns,
            BreakerState::HalfOpen => !self.probe_inflight,
        }
    }

    /// If the breaker is open, the virtual time [`allow`](Self::allow)
    /// would start admitting probes — the wake-up an event-driven caller
    /// arms. `None` when dispatchable now (or permanently tripped).
    pub fn wake_at_ns(&self) -> Option<u64> {
        (self.state == BreakerState::Open && self.open_until_ns < u64::MAX)
            .then_some(self.open_until_ns)
    }

    /// Feeds one successful dispatch completion back.
    pub fn record_success(&mut self, now_ns: u64) {
        match self.state {
            BreakerState::Closed => self.window.push(true),
            BreakerState::HalfOpen => {
                self.probe_inflight = false;
                self.probe_successes += 1;
                if self.probe_successes >= self.policy.half_open_successes {
                    // Fresh slate: pre-trip failures no longer count.
                    self.window.clear();
                    self.transition(now_ns, BreakerState::Closed);
                }
            }
            // A completion racing in after the trip (e.g. a slow dispatch
            // from the closed era): the trip decision stands.
            BreakerState::Open => {}
        }
    }

    /// Feeds one failed dispatch (watchdog timeout, poisoned read) back.
    pub fn record_failure(&mut self, now_ns: u64) {
        match self.state {
            BreakerState::Closed => {
                self.window.push(false);
                if self.window.failures() >= self.policy.open_after {
                    self.trip(now_ns);
                }
            }
            BreakerState::HalfOpen => {
                self.probe_inflight = false;
                self.probe_successes = 0;
                self.trip(now_ns);
            }
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now_ns: u64) {
        self.open_until_ns = now_ns.saturating_add(self.policy.cooldown_ns);
        self.transition(now_ns, BreakerState::Open);
    }
}

/// Hysteresis thresholds for the brownout tier ladder, in queued requests
/// per live replica.
///
/// `enter[i]` steps *down* onto rung `i + 1` of
/// `f64 → f32 → i16 → shed`; `exit[i]` steps back *up* off it. Requiring
/// `exit[i] < enter[i]` is what prevents tier flapping when the queue
/// depth hovers at a threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrownoutPolicy {
    /// Depth at which rung `i + 1` engages (ascending).
    pub enter: [usize; 3],
    /// Depth at which rung `i + 1` disengages (strictly below `enter[i]`).
    pub exit: [usize; 3],
}

impl BrownoutPolicy {
    /// The default ladder: f32 at depth 16, i16 at 48, shed at 128, each
    /// releasing at half its engage depth.
    pub fn standard() -> Self {
        BrownoutPolicy {
            enter: [16, 48, 128],
            exit: [8, 24, 64],
        }
    }

    /// Thresholds no realistic queue ever reaches — brownout effectively
    /// off, the "no-resilience" control arm for chaos comparisons.
    pub fn disabled() -> Self {
        BrownoutPolicy {
            enter: [usize::MAX - 2, usize::MAX - 1, usize::MAX],
            exit: [usize::MAX / 2, usize::MAX / 2 + 1, usize::MAX / 2 + 2],
        }
    }

    /// Validates the hysteresis invariants.
    ///
    /// # Panics
    ///
    /// Panics when `enter` is not strictly ascending or any
    /// `exit[i] >= enter[i]`.
    pub fn validated(self) -> Self {
        assert!(
            self.enter[0] < self.enter[1] && self.enter[1] < self.enter[2],
            "brownout enter thresholds must ascend: {:?}",
            self.enter
        );
        for i in 0..3 {
            assert!(
                self.exit[i] < self.enter[i],
                "brownout exit[{i}] {} must sit below enter[{i}] {} (hysteresis)",
                self.exit[i],
                self.enter[i]
            );
        }
        self
    }
}

impl Default for BrownoutPolicy {
    fn default() -> Self {
        BrownoutPolicy::standard()
    }
}

/// One brownout rung change, stamped in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierTransition {
    /// Virtual time of the change.
    pub at_ns: u64,
    /// Rung before (0 = f64 … 3 = shed).
    pub from_rung: u8,
    /// Rung after.
    pub to_rung: u8,
}

/// One precision rung of the brownout ladder, precision-first. Below the
/// three tiers sits rung 3, where new arrivals are shed.
///
/// The serving simulator charges each dispatch virtual time for the tier
/// its replica is on (`photon-sim`'s `TierCostModel`), but only one tier
/// has a path that runs, and `photon-sim`'s `run_on_chip` serves every
/// batch on it whatever the tier:
///
/// | tier  | what runs                                                   |
/// |-------|-------------------------------------------------------------|
/// | `F64` | the pinned serve, `FabricatedChip::serve_pinned_batch_into` |
/// | `F32` | nothing: a virtual-time charge only                         |
/// | `I16` | nothing: a virtual-time charge only                         |
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServingTier {
    /// The pinned compiled f64 serve (the bitwise oracle).
    F64,
    /// A cheaper rung with no serve path behind it.
    F32,
    /// A cheaper rung with no serve path behind it.
    I16,
}

impl ServingTier {
    /// All tiers, precision-first (the brownout ladder walks this order).
    pub const LADDER: [ServingTier; 3] = [ServingTier::F64, ServingTier::F32, ServingTier::I16];

    /// Stable lower-case label: `"f64"`, `"f32"` or `"i16"`.
    pub fn label(self) -> &'static str {
        match self {
            ServingTier::F64 => "f64",
            ServingTier::F32 => "f32",
            ServingTier::I16 => "i16",
        }
    }

    /// Label of brownout rung `rung`: its tier's [`label`](Self::label),
    /// or `"shed"` on rung 3.
    pub fn label_of_rung(rung: usize) -> &'static str {
        ServingTier::from_rung(rung).map_or("shed", ServingTier::label)
    }

    /// Position on the ladder: 0 = `F64`, 2 = `I16`.
    pub fn rung(self) -> usize {
        self as usize
    }

    /// The tier at ladder position `rung`, if in range.
    pub fn from_rung(rung: usize) -> Option<ServingTier> {
        ServingTier::LADDER.get(rung).copied()
    }
}

/// Per-replica load-shedding controller walking the brownout ladder
/// `f64 → f32 → i16 → shed` as queue depth crosses the hysteresis
/// thresholds. Only the shed rung changes what is served: the
/// precision tiers differ in the virtual time they are charged (see
/// [`ServingTier`]).
#[derive(Debug)]
pub struct BrownoutController {
    policy: BrownoutPolicy,
    rung: usize,
    transitions: Vec<TierTransition>,
    served: [u64; 3],
}

impl BrownoutController {
    /// A fresh controller at full precision.
    ///
    /// # Panics
    ///
    /// Panics when `policy` violates the hysteresis invariants (see
    /// [`BrownoutPolicy::validated`]).
    pub fn new(policy: BrownoutPolicy) -> Self {
        BrownoutController {
            policy: policy.validated(),
            rung: 0,
            transitions: Vec::new(),
            served: [0; 3],
        }
    }

    /// Observes the current queue depth (per live replica) at `now_ns` and
    /// returns the tier to serve at — `None` on the shed rung, where new
    /// arrivals are rejected at admission (queued work still drains at
    /// `i16`).
    pub fn observe(&mut self, now_ns: u64, depth: usize) -> Option<ServingTier> {
        let mut rung = self.rung;
        while rung < 3 && depth >= self.policy.enter[rung] {
            rung += 1;
        }
        while rung > 0 && depth <= self.policy.exit[rung - 1] {
            rung -= 1;
        }
        if rung != self.rung {
            self.transitions.push(TierTransition {
                at_ns: now_ns,
                from_rung: self.rung as u8,
                to_rung: rung as u8,
            });
            self.rung = rung;
        }
        self.current()
    }

    /// The tier the controller currently serves at (`None` = shed rung;
    /// queued work drains at the deepest precision tier).
    pub fn current(&self) -> Option<ServingTier> {
        ServingTier::from_rung(self.rung)
    }

    /// The precision tier queued work drains at — `I16` while on the shed
    /// rung (shedding gates *admission*, not the drain).
    pub fn drain_tier(&self) -> ServingTier {
        ServingTier::from_rung(self.rung).unwrap_or(ServingTier::I16)
    }

    /// Whether new arrivals should be shed right now.
    pub fn shedding(&self) -> bool {
        self.rung == 3
    }

    /// Credits `n` requests served at `tier`.
    pub fn record_served(&mut self, tier: ServingTier, n: u64) {
        self.served[tier.rung()] += n;
    }

    /// Requests served per precision tier, ladder order.
    pub fn served(&self) -> [u64; 3] {
        self.served
    }

    /// The rung-transition log, oldest first.
    pub fn transitions(&self) -> &[TierTransition] {
        &self.transitions
    }
}

/// How hedged re-dispatch picks its trigger delay.
///
/// A batch is hedged once it outlives the [`quantile`](Self::quantile) of
/// its tenants' last [`window`](Self::window) completion latencies (ranked
/// by [`nan_last_cmp`], so NaNs count as the slowest). The
/// [`HedgeDelayTracker`] keeps each window sorted as it slides, so reading
/// the delay at dispatch is O(1) and recording a completion costs a binary
/// search plus an O(`window`) shift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Latency quantile the hedge delay tracks (0.99 = hedge once a
    /// dispatch outlives the tenant's observed p99).
    pub quantile: f64,
    /// Floor on the hedge delay, and the delay used until a tenant has
    /// [`min_samples`](Self::min_samples) completions (the *seed* delay).
    pub min_delay_ns: u64,
    /// Completion latencies retained per tenant.
    pub window: usize,
    /// Completions a tenant needs before its own quantile takes over from
    /// the seed delay.
    pub min_samples: usize,
}

impl HedgePolicy {
    /// The default policy: hedge at the rolling per-tenant p99 over the
    /// last 256 completions, floored at 200 µs.
    pub fn standard() -> Self {
        HedgePolicy {
            quantile: 0.99,
            min_delay_ns: 200_000,
            window: 256,
            min_samples: 16,
        }
    }
}

impl Default for HedgePolicy {
    fn default() -> Self {
        HedgePolicy::standard()
    }
}

/// Rolling per-tenant completion latencies feeding the quantile-derived
/// hedge delay. Deterministic: the delay is a pure function of the
/// completion history, and the seed delay covers the cold start.
///
/// Each tenant's window is held twice: in arrival order, which says what to
/// evict, and sorted under [`nan_last_cmp`], from which
/// [`delay_ns`](Self::delay_ns) reads the quantile by rank with
/// [`quantile_of_ranked`] — the same bits [`photon_core::percentiles`]
/// returns for the window. [`record`](Self::record) finds the evicted value
/// by binary search under the same order, in which equal means equal bits,
/// so `0.0` and `-0.0` (or two NaNs) are never confused.
#[derive(Debug)]
pub struct HedgeDelayTracker {
    policy: HedgePolicy,
    windows: Vec<LatencyWindow>,
}

/// One tenant's last `window` completion latencies.
#[derive(Debug)]
struct LatencyWindow {
    /// Arrival order, oldest first.
    fifo: VecDeque<f64>,
    /// The same values, ascending under [`nan_last_cmp`].
    sorted: Vec<f64>,
}

impl HedgeDelayTracker {
    /// A tracker for `tenants` tenants.
    ///
    /// # Panics
    ///
    /// Panics on a quantile outside `(0, 1)` or a zero window.
    pub fn new(policy: HedgePolicy, tenants: usize) -> Self {
        assert!(
            policy.quantile > 0.0 && policy.quantile < 1.0,
            "hedge quantile {} must lie in (0, 1)",
            policy.quantile
        );
        assert!(
            policy.window >= 1,
            "hedge window must hold at least 1 sample"
        );
        HedgeDelayTracker {
            policy,
            windows: (0..tenants)
                .map(|_| LatencyWindow {
                    fifo: VecDeque::with_capacity(policy.window),
                    sorted: Vec::with_capacity(policy.window),
                })
                .collect(),
        }
    }

    /// The policy this tracker was built with.
    pub fn policy(&self) -> HedgePolicy {
        self.policy
    }

    /// Records one completion latency for `tenant`, evicting its oldest
    /// once the window is full: two binary searches and O(`window`) shifts.
    pub fn record(&mut self, tenant: usize, latency_ns: f64) {
        let w = &mut self.windows[tenant];
        if w.fifo.len() == self.policy.window {
            let evicted = w.fifo.pop_front().expect("a full window is non-empty");
            let at = w
                .sorted
                .binary_search_by(|v| nan_last_cmp(v, &evicted))
                .expect("the evicted latency is in the sorted window");
            w.sorted.remove(at);
        }
        w.fifo.push_back(latency_ns);
        let at = w
            .sorted
            .binary_search_by(|v| nan_last_cmp(v, &latency_ns))
            .unwrap_or_else(|gap| gap);
        w.sorted.insert(at, latency_ns);
    }

    /// The hedge delay for `tenant`: the rolling quantile of its recent
    /// completion latencies, floored at the policy minimum; the seed delay
    /// until enough samples exist. O(1): a read at a rank of the sorted
    /// window.
    pub fn delay_ns(&self, tenant: usize) -> u64 {
        let sorted = &self.windows[tenant].sorted;
        if sorted.len() < self.policy.min_samples.max(1) {
            return self.policy.min_delay_ns;
        }
        let q = quantile_of_ranked(sorted, self.policy.quantile);
        if q.is_finite() {
            (q as u64).max(self.policy.min_delay_ns)
        } else {
            self.policy.min_delay_ns
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_window_wraps_old_outcomes_out() {
        let mut w = RollingWindow::new(3);
        w.push(false);
        w.push(false);
        assert_eq!(w.failures(), 2);
        assert_eq!(w.len(), 2);
        // Two more pushes evict the first failure...
        w.push(true);
        w.push(true);
        assert_eq!(w.len(), 3);
        assert_eq!(w.failures(), 1, "oldest failure slid out of the window");
        // ...and one more clears the window of failures entirely.
        w.push(true);
        assert_eq!(w.failures(), 0);
        assert_eq!(w.ok_streak(), 3);
    }

    #[test]
    fn rolling_window_streak_resets_on_failure_and_on_clear() {
        let mut w = RollingWindow::new(4);
        w.push(true);
        w.push(true);
        assert_eq!(w.ok_streak(), 2);
        w.push(false);
        assert_eq!(w.ok_streak(), 0, "a failure resets the streak");
        w.push(true);
        assert_eq!(w.ok_streak(), 1);
        w.clear();
        assert_eq!((w.len(), w.ok_streak(), w.failures()), (0, 0, 0));
        assert!(w.is_empty());
        // The streak survives evictions: window cap 4, push 6 successes.
        for _ in 0..6 {
            w.push(true);
        }
        assert_eq!(w.len(), 4);
        assert_eq!(
            w.ok_streak(),
            6,
            "streak counts recent history, not window contents"
        );
    }

    #[test]
    fn zero_cap_window_is_clamped_not_panicking() {
        let mut w = RollingWindow::new(0);
        w.push(false);
        assert_eq!(w.len(), 1);
        assert_eq!(w.failures(), 1);
    }

    fn quick_breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerPolicy {
            window: 4,
            open_after: 2,
            cooldown_ns: 1_000,
            half_open_successes: 2,
        })
    }

    #[test]
    fn breaker_trips_cools_probes_and_recloses_at_deterministic_times() {
        let mut b = quick_breaker();
        assert!(b.allow(0));
        b.record_failure(10);
        assert_eq!(b.state(), BreakerState::Closed, "one failure is tolerated");
        b.record_failure(20);
        assert_eq!(b.state(), BreakerState::Open, "second failure trips");
        assert!(!b.allow(20));
        assert!(!b.allow(1_019));
        assert_eq!(b.wake_at_ns(), Some(1_020));
        // Cooldown expires: the first allow() transitions to HalfOpen and
        // admits exactly one serial probe.
        assert!(b.allow(1_020));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(1_021), "probes are serial");
        b.record_success(1_500);
        assert!(b.allow(1_500), "next probe admitted after the first lands");
        b.record_success(2_000);
        assert_eq!(b.state(), BreakerState::Closed, "two clean probes re-close");
        // The audit trail is exact.
        assert_eq!(
            b.transitions(),
            &[
                BreakerTransition {
                    at_ns: 20,
                    from: BreakerState::Closed,
                    to: BreakerState::Open
                },
                BreakerTransition {
                    at_ns: 1_020,
                    from: BreakerState::Open,
                    to: BreakerState::HalfOpen
                },
                BreakerTransition {
                    at_ns: 2_000,
                    from: BreakerState::HalfOpen,
                    to: BreakerState::Closed
                },
            ]
        );
        // Re-closing wiped the window: two fresh failures are needed to
        // trip again, not one.
        b.record_failure(2_100);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_with_a_fresh_cooldown() {
        let mut b = quick_breaker();
        b.record_failure(0);
        b.record_failure(0);
        assert!(b.allow(1_000), "cooldown expired at 1000");
        b.record_failure(1_200);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(
            b.wake_at_ns(),
            Some(2_200),
            "cooldown restarts from the probe failure"
        );
        assert!(!b.allow(2_199));
        assert!(b.allow(2_200));
    }

    #[test]
    fn brownout_walks_the_ladder_with_hysteresis() {
        let mut c = BrownoutController::new(BrownoutPolicy {
            enter: [10, 20, 30],
            exit: [5, 12, 22],
        });
        assert_eq!(c.observe(0, 0), Some(ServingTier::F64));
        assert_eq!(c.observe(1, 9), Some(ServingTier::F64));
        assert_eq!(
            c.observe(2, 10),
            Some(ServingTier::F32),
            "enter[0] steps down"
        );
        // Inside the hysteresis band nothing moves.
        assert_eq!(c.observe(3, 7), Some(ServingTier::F32));
        assert_eq!(
            c.observe(4, 5),
            Some(ServingTier::F64),
            "exit[0] steps back up"
        );
        // A depth spike can walk several rungs at once.
        assert_eq!(c.observe(5, 35), None, "beyond enter[2] is the shed rung");
        assert!(c.shedding());
        assert_eq!(
            c.drain_tier(),
            ServingTier::I16,
            "queued work still drains at i16"
        );
        assert_eq!(
            c.observe(6, 12),
            Some(ServingTier::F32),
            "recovery walks back up"
        );
        assert_eq!(
            c.transitions()
                .iter()
                .map(|t| (t.at_ns, t.from_rung, t.to_rung))
                .collect::<Vec<_>>(),
            vec![(2, 0, 1), (4, 1, 0), (5, 0, 3), (6, 3, 1)]
        );
        c.record_served(ServingTier::F32, 7);
        c.record_served(ServingTier::I16, 2);
        assert_eq!(c.served(), [0, 7, 2]);
    }

    #[test]
    fn ladder_is_precision_first_and_rungs_roundtrip() {
        for (i, t) in ServingTier::LADDER.into_iter().enumerate() {
            assert_eq!(t.rung(), i);
            assert_eq!(ServingTier::from_rung(i), Some(t));
            assert_eq!(ServingTier::label_of_rung(i), t.label());
        }
        assert_eq!(ServingTier::from_rung(3), None);
        assert!(ServingTier::F64 < ServingTier::F32 && ServingTier::F32 < ServingTier::I16);
        let labels: Vec<_> = (0..4).map(ServingTier::label_of_rung).collect();
        assert_eq!(labels, ["f64", "f32", "i16", "shed"]);
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn brownout_rejects_exit_at_or_above_enter() {
        let _ = BrownoutController::new(BrownoutPolicy {
            enter: [10, 20, 30],
            exit: [10, 12, 22],
        });
    }

    #[test]
    fn hedge_delay_uses_seed_until_warm_then_tracks_p99() {
        let mut t = HedgeDelayTracker::new(
            HedgePolicy {
                quantile: 0.99,
                min_delay_ns: 1_000,
                window: 100,
                min_samples: 10,
            },
            2,
        );
        assert_eq!(t.delay_ns(0), 1_000, "cold tenant uses the seed delay");
        for i in 1..=100u64 {
            t.record(0, i as f64 * 100.0);
        }
        let d = t.delay_ns(0);
        assert!(
            (9_000..=10_000).contains(&d),
            "p99 of 100..10_000 ns in hundreds should be ~9_901, got {d}"
        );
        // Tenant 1 is untouched by tenant 0's history.
        assert_eq!(t.delay_ns(1), 1_000);
        // The floor applies even when the quantile is tiny.
        let mut fast = HedgeDelayTracker::new(
            HedgePolicy {
                quantile: 0.5,
                min_delay_ns: 5_000,
                window: 8,
                min_samples: 1,
            },
            1,
        );
        fast.record(0, 10.0);
        assert_eq!(fast.delay_ns(0), 5_000);
    }
}
