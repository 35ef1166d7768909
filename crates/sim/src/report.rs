//! The serving report: per-tenant tail latencies, throughput, overload
//! accounting, and per-replica resilience state, with deterministic text
//! and JSON renderings.
//!
//! Both renderings are pure functions of the simulation state — no
//! timestamps, no host names, no float formatting that could vary between
//! runs — so "same seed ⇒ byte-identical report" is checkable with `cmp`.

use photon_core::percentiles;
use photon_farm::{BreakerState, BreakerTransition, ServingTier};
use photon_trace::{json_f64, json_str, TraceEvent, TraceHandle};

/// Latency/throughput summary for one tenant (or the `"all"` aggregate).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantServingStats {
    /// Tenant name, `"all"` for the aggregate row.
    pub tenant: String,
    /// Requests that arrived inside the arrival window.
    pub arrivals: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests shed at admission (queue full).
    pub shed: u64,
    /// Requests dropped at drain time because their deadline had already
    /// passed — serving them would have wasted chip time on answers the
    /// caller abandoned.
    pub expired: u64,
    /// Median completion latency, virtual ns (NaN when nothing completed).
    pub p50_ns: f64,
    /// 99th-percentile latency, virtual ns.
    pub p99_ns: f64,
    /// 99.9th-percentile latency, virtual ns.
    pub p999_ns: f64,
    /// Mean latency, virtual ns.
    pub mean_ns: f64,
    /// Completed requests per second of makespan.
    pub throughput_rps: f64,
    /// High-water queue depth.
    pub peak_queue_depth: u64,
}

impl TenantServingStats {
    /// Builds one row from raw completion latencies.
    #[allow(clippy::too_many_arguments)]
    pub fn from_samples(
        tenant: &str,
        arrivals: u64,
        completed: u64,
        shed: u64,
        expired: u64,
        peak_queue_depth: u64,
        latencies_ns: &[f64],
        makespan_ns: u64,
    ) -> Self {
        let (p50_ns, p99_ns, p999_ns, mean_ns) = if latencies_ns.is_empty() {
            (f64::NAN, f64::NAN, f64::NAN, f64::NAN)
        } else {
            let q = percentiles(latencies_ns, &[0.5, 0.99, 0.999]);
            let mean = latencies_ns.iter().sum::<f64>() / latencies_ns.len() as f64;
            (q[0], q[1], q[2], mean)
        };
        TenantServingStats {
            tenant: tenant.to_string(),
            arrivals,
            completed,
            shed,
            expired,
            p50_ns,
            p99_ns,
            p999_ns,
            mean_ns,
            throughput_rps: completed as f64 / (makespan_ns as f64 / 1e9),
            peak_queue_depth,
        }
    }

    /// The matching [`TraceEvent::ServingStats`] record.
    pub fn to_event(&self, mean_batch: f64) -> TraceEvent {
        TraceEvent::ServingStats {
            tenant: self.tenant.clone(),
            arrivals: self.arrivals,
            completed: self.completed,
            shed: self.shed,
            p50_ns: self.p50_ns,
            p99_ns: self.p99_ns,
            p999_ns: self.p999_ns,
            throughput_rps: self.throughput_rps,
            peak_queue_depth: self.peak_queue_depth,
            mean_batch,
        }
    }
}

/// Per-replica shutdown stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Replica name.
    pub name: String,
    /// Dispatch legs started on it (primaries and hedges).
    pub dispatches: u64,
    /// Legs that completed (including duplicate hedge legs).
    pub completions: u64,
    /// Legs abandoned by the watchdog.
    pub timeouts: u64,
    /// Breaker state at shutdown.
    pub final_breaker: BreakerState,
    /// The breaker's full transition log, oldest first — deterministic
    /// virtual-time stamps the chaos tests assert on.
    pub breaker_transitions: Vec<BreakerTransition>,
    /// Requests served per precision tier, indexed by
    /// [`ServingTier::rung`] (`[f64, f32, i16]`).
    pub tier_served: [u64; 3],
    /// Brownout rung changes observed.
    pub tier_transitions: u64,
}

/// Complete result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Config label.
    pub label: String,
    /// Root seed the run derived every stream from.
    pub root_seed: u64,
    /// Arrival window, virtual ns.
    pub duration_ns: u64,
    /// Virtual time of the last completion (the drain may outlive the
    /// arrival window under overload).
    pub makespan_ns: u64,
    /// Coalescer batch bound.
    pub max_batch: usize,
    /// Coalescer flush deadline, virtual ns.
    pub max_wait_ns: u64,
    /// Per-tenant rows, in tenant order (`shed` folds queue-cap and
    /// brownout sheds).
    pub tenants: Vec<TenantServingStats>,
    /// The all-tenants aggregate row.
    pub aggregate: TenantServingStats,
    /// Per-replica rows, in replica order.
    pub replicas: Vec<ReplicaStats>,
    /// Dispatch legs started (primaries and hedges).
    pub batches: u64,
    /// Mean requests per dispatch leg (NaN when nothing dispatched).
    pub mean_batch: f64,
    /// Dispatches struck by a random fault hang (scripted hang windows are
    /// counted per replica via timeouts instead).
    pub hangs: u64,
    /// Background recalibration passes served.
    pub recals: u64,
    /// Piggybacked calibration probes served (dispatched only into idle
    /// microbatch slots, budgeted per window).
    pub probes: u64,
    /// Canary comparison batches served.
    pub canaries: u64,
    /// Hedge legs dispatched.
    pub hedges_fired: u64,
    /// Batches where the hedge leg completed first.
    pub hedge_wins: u64,
    /// Duplicate request completions (each was a no-op on counters).
    pub duplicates: u64,
    /// Chip queries attributed to first-completion work
    /// (`QueryCategory::Eval`); equals `aggregate.completed`.
    pub eval_queries: u64,
    /// Chip queries attributed to duplicate hedged work
    /// (`QueryCategory::Hedge`); equals `duplicates`.
    pub hedge_queries: u64,
    /// Chip queries spent when the run drove a real chip
    /// ([`crate::run_on_chip`]); `None` for model-only runs. Must equal
    /// `eval_queries + hedge_queries` exactly.
    pub chip_queries: Option<u64>,
}

/// [`ServingReport`] under its earlier replica-group name, kept for the
/// `perfbench` harness.
pub type ResilienceReport = ServingReport;

/// Formats an f64 with fixed precision for the text table (NaN → `-`).
fn fx(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "-".to_string()
    }
}

/// One tenant row as a deterministic JSON object.
fn tenant_row_json(r: &TenantServingStats) -> String {
    format!(
        "{{\"tenant\":{},\"arrivals\":{},\"completed\":{},\"shed\":{},\"expired\":{},\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"mean_ns\":{},\"throughput_rps\":{},\"peak_queue_depth\":{}}}",
        json_str(&r.tenant),
        r.arrivals,
        r.completed,
        r.shed,
        r.expired,
        json_f64(r.p50_ns),
        json_f64(r.p99_ns),
        json_f64(r.p999_ns),
        json_f64(r.mean_ns),
        json_f64(r.throughput_rps),
        r.peak_queue_depth,
    )
}

/// A replica's served counts in ladder order, joined by `sep`.
fn tier_counts(r: &ReplicaStats, sep: &str) -> String {
    ServingTier::LADDER
        .map(|t| r.tier_served[t.rung()].to_string())
        .join(sep)
}

/// One replica row as a deterministic JSON object.
fn replica_json(r: &ReplicaStats) -> String {
    let transitions: Vec<String> = r
        .breaker_transitions
        .iter()
        .map(|t| {
            format!(
                "{{\"at_ns\":{},\"from\":{},\"to\":{}}}",
                t.at_ns,
                json_str(t.from.label()),
                json_str(t.to.label()),
            )
        })
        .collect();
    format!(
        "{{\"name\":{},\"dispatches\":{},\"completions\":{},\"timeouts\":{},\"breaker\":{},\"breaker_transitions\":[{}],\"tier_served\":[{}],\"tier_transitions\":{}}}",
        json_str(&r.name),
        r.dispatches,
        r.completions,
        r.timeouts,
        json_str(r.final_breaker.label()),
        transitions.join(","),
        tier_counts(r, ","),
        r.tier_transitions,
    )
}

impl ServingReport {
    /// Requests lost to overload or failure: shed (queue cap or brownout)
    /// plus expired. The chaos gates compare this across arms.
    pub fn lost(&self) -> u64 {
        self.aggregate.shed + self.aggregate.expired
    }

    /// Whether every arrival is accounted for exactly once:
    /// `arrivals == completed + shed + expired`, per tenant and aggregate.
    pub fn conserves_requests(&self) -> bool {
        self.tenants
            .iter()
            .chain([&self.aggregate])
            .all(|t| t.arrivals == t.completed + t.shed + t.expired)
    }

    /// Deterministic plain-text rendering (latencies in microseconds).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "serving [{}] seed {}: {} replica(s), batch<={}, max wait {} us",
            if self.label.is_empty() {
                "unlabeled"
            } else {
                &self.label
            },
            self.root_seed,
            self.replicas.len(),
            self.max_batch,
            self.max_wait_ns / 1_000,
        );
        let _ = writeln!(
            out,
            "  window {} ms, makespan {} ms, {} dispatches (mean batch {}), {} hangs, {} recals, {} probes, {} canaries",
            fx(self.duration_ns as f64 / 1e6, 3),
            fx(self.makespan_ns as f64 / 1e6, 3),
            self.batches,
            fx(self.mean_batch, 2),
            self.hangs,
            self.recals,
            self.probes,
            self.canaries,
        );
        let _ = writeln!(
            out,
            "  {} hedges ({} wins), {} duplicate completions; ledger: eval {} + hedge {} queries",
            self.hedges_fired,
            self.hedge_wins,
            self.duplicates,
            self.eval_queries,
            self.hedge_queries,
        );
        if let Some(q) = self.chip_queries {
            let _ = writeln!(out, "  chip queries {q} (reconciled against the ledger)");
        }
        let _ = writeln!(
            out,
            "  {:<10} {:>10} {:>10} {:>9} {:>10} {:>24} {:>9}",
            "replica",
            "dispatches",
            "completed",
            "timeouts",
            "breaker",
            format!(
                "tiers {}",
                ServingTier::LADDER.map(ServingTier::label).join("/")
            ),
            "rungmoves"
        );
        for r in &self.replicas {
            let _ = writeln!(
                out,
                "  {:<10} {:>10} {:>10} {:>9} {:>10} {:>24} {:>9}",
                r.name,
                r.dispatches,
                r.completions,
                r.timeouts,
                r.final_breaker.label(),
                tier_counts(r, "/"),
                r.tier_transitions,
            );
        }
        let _ = writeln!(
            out,
            "  {:<10} {:>9} {:>9} {:>7} {:>7} {:>10} {:>10} {:>10} {:>11} {:>6}",
            "tenant",
            "arrivals",
            "done",
            "shed",
            "expired",
            "p50us",
            "p99us",
            "p999us",
            "rps",
            "peakq"
        );
        for row in self.tenants.iter().chain([&self.aggregate]) {
            let _ = writeln!(
                out,
                "  {:<10} {:>9} {:>9} {:>7} {:>7} {:>10} {:>10} {:>10} {:>11} {:>6}",
                row.tenant,
                row.arrivals,
                row.completed,
                row.shed,
                row.expired,
                fx(row.p50_ns / 1e3, 1),
                fx(row.p99_ns / 1e3, 1),
                fx(row.p999_ns / 1e3, 1),
                fx(row.throughput_rps, 0),
                row.peak_queue_depth,
            );
        }
        out
    }

    /// Deterministic JSON rendering (one object, latencies in ns).
    pub fn to_json(&self) -> String {
        let replicas: Vec<String> = self.replicas.iter().map(replica_json).collect();
        let tenants: Vec<String> = self.tenants.iter().map(tenant_row_json).collect();
        format!(
            "{{\"label\":{},\"root_seed\":{},\"duration_ns\":{},\"makespan_ns\":{},\"max_batch\":{},\"max_wait_ns\":{},\"batches\":{},\"mean_batch\":{},\"hangs\":{},\"recals\":{},\"probes\":{},\"canaries\":{},\"hedges_fired\":{},\"hedge_wins\":{},\"duplicates\":{},\"eval_queries\":{},\"hedge_queries\":{},\"chip_queries\":{},\"replicas\":[{}],\"tenants\":[{}],\"aggregate\":{}}}",
            json_str(&self.label),
            self.root_seed,
            self.duration_ns,
            self.makespan_ns,
            self.max_batch,
            self.max_wait_ns,
            self.batches,
            json_f64(self.mean_batch),
            self.hangs,
            self.recals,
            self.probes,
            self.canaries,
            self.hedges_fired,
            self.hedge_wins,
            self.duplicates,
            self.eval_queries,
            self.hedge_queries,
            self.chip_queries.map_or("null".to_string(), |q| q.to_string()),
            replicas.join(","),
            tenants.join(","),
            tenant_row_json(&self.aggregate),
        )
    }

    /// Emits one [`TraceEvent::ServingStats`] per tenant row plus the
    /// aggregate, then flushes the sink.
    pub fn emit(&self, trace: &TraceHandle) {
        for t in self.tenants.iter().chain([&self.aggregate]) {
            trace.emit(|| t.to_event(self.mean_batch));
        }
        trace.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> TenantServingStats {
        TenantServingStats::from_samples(
            "t",
            100,
            90,
            8,
            2,
            12,
            &(1..=90).map(|i| i as f64 * 1_000.0).collect::<Vec<_>>(),
            1_000_000_000,
        )
    }

    fn replica() -> ReplicaStats {
        ReplicaStats {
            name: "w0".into(),
            dispatches: 12,
            completions: 12,
            timeouts: 0,
            final_breaker: BreakerState::Closed,
            breaker_transitions: Vec::new(),
            tier_served: [90, 0, 0],
            tier_transitions: 0,
        }
    }

    #[test]
    fn from_samples_uses_shared_percentiles() {
        let s = stats();
        // 90 samples of 1k..90k ns: median interpolates to 45.5k.
        assert!((s.p50_ns - 45_500.0).abs() < 1e-9, "{}", s.p50_ns);
        assert!(s.p99_ns > s.p50_ns && s.p999_ns >= s.p99_ns);
        assert!((s.throughput_rps - 90.0).abs() < 1e-9);
    }

    #[test]
    fn empty_latencies_are_nan_not_panic() {
        let s = TenantServingStats::from_samples("idle", 0, 0, 0, 0, 0, &[], 1_000);
        assert!(s.p50_ns.is_nan() && s.p999_ns.is_nan() && s.mean_ns.is_nan());
        assert_eq!(s.throughput_rps, 0.0);
    }

    #[test]
    fn report_renderings_are_deterministic_and_nan_safe() {
        let report = ServingReport {
            label: "unit".into(),
            root_seed: 7,
            duration_ns: 1_000_000,
            makespan_ns: 1_100_000,
            max_batch: 16,
            max_wait_ns: 50_000,
            tenants: vec![stats()],
            aggregate: TenantServingStats::from_samples("all", 0, 0, 0, 0, 0, &[], 1_000),
            replicas: vec![replica()],
            batches: 12,
            mean_batch: 7.5,
            hangs: 0,
            recals: 2,
            probes: 5,
            canaries: 1,
            hedges_fired: 0,
            hedge_wins: 0,
            duplicates: 0,
            eval_queries: 90,
            hedge_queries: 0,
            chip_queries: Some(90),
        };
        assert_eq!(report.render(), report.render());
        let json = report.to_json();
        assert_eq!(json, report.to_json());
        assert!(json.contains("\"chip_queries\":90"));
        assert!(json.contains("\"probes\":5,\"canaries\":1"));
        assert!(json.contains("\"shed\":8,\"expired\":2"));
        assert!(report.render().contains("expired"));
        assert!(report.render().contains("5 probes, 1 canaries"));
        assert!(json.contains("\"p50_ns\":null"), "NaN must become null");
        assert!(json.contains("\"tenants\":[{\"tenant\":\"t\""));
        assert!(report.render().contains("chip queries 90"));
        // NaN rows render as '-' placeholders, not 'NaN'.
        assert!(report.render().contains('-'));
        assert!(!report.render().contains("NaN"));
    }

    #[test]
    fn emit_produces_one_event_per_row() {
        let (handle, mem) = TraceHandle::memory(0);
        let report = ServingReport {
            label: String::new(),
            root_seed: 1,
            duration_ns: 10,
            makespan_ns: 10,
            max_batch: 1,
            max_wait_ns: 0,
            tenants: vec![stats(), stats()],
            aggregate: stats(),
            replicas: vec![replica()],
            batches: 1,
            mean_batch: 1.0,
            hangs: 0,
            recals: 0,
            probes: 0,
            canaries: 0,
            hedges_fired: 0,
            hedge_wins: 0,
            duplicates: 0,
            eval_queries: 90,
            hedge_queries: 0,
            chip_queries: None,
        };
        report.emit(&handle);
        let events = mem.events();
        assert_eq!(events.len(), 3, "two tenants + aggregate");
        assert!(events.iter().all(|e| e.kind() == "serving_stats"));
    }
}
