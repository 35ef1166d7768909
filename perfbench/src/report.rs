//! Metric names and units, summary statistics, and the result line.

use std::fmt::Write;

/// End-to-end metrics of an untraced run, in print order. `run.py` adds
/// `peak_rss_mb`, which it measures from outside the process. Operation
/// times are in multiples of the reference kernel's time (unit `ref`, see
/// [`crate::reference`]).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ref", "ref"),
    ("requests_per_ref", "1/ref"),
    ("good_frac", "fraction"),
];

/// Per-layer metrics of a traced run, in print order. Every workload
/// prints all of them; a layer the workload does not use reads 0.
/// Times and counts are means per operation unless the name says
/// otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.build_task_s", "s"),
    ("calib.calibrate_s", "s"),
    ("calib.fit_self_s", "s"),
    ("calib.chip_s", "s"),
    ("calib.iterations", "count"),
    ("calib.queries", "count"),
    ("calib.fit_cost", "sq_residual"),
    ("photonics.batch_calls", "count"),
    ("photonics.batch_queries", "count"),
    ("photonics.batch_busy_s", "s"),
    ("photonics.pin_calls", "count"),
    ("photonics.pin_s", "s"),
    ("photonics.cache_misses", "count"),
    ("photonics.incremental", "count"),
    ("photonics.forced_recompiles", "count"),
    ("photonics.incremental_frac", "fraction"),
    ("photonics.serve_s", "s"),
    ("photonics.serve_queries", "count"),
    ("photonics.serve_ns_per_query", "ns"),
    ("core.train_s", "s"),
    ("core.test_acc", "fraction"),
    ("core.warm_start_s", "s"),
    ("core.finetune_s", "s"),
    ("core.self_s", "s"),
    ("core.queries.batch_loss", "count"),
    ("core.queries.probe", "count"),
    ("core.queries.fisher", "count"),
    ("core.queries.eval", "count"),
    ("core.slices", "count"),
    ("core.journal.records", "count"),
    ("core.journal.bytes", "bytes"),
    ("core.journal.replay_s", "s"),
    ("exec.threads", "count"),
    ("exec.map_calls", "count"),
    ("exec.items", "count"),
    ("sim.coalesce_loop_s", "s"),
    ("sim.resilient_loop_s", "s"),
    ("sim.pair_tail_s", "s"),
    ("sim.arrivals", "count"),
    ("sim.dispatches", "count"),
    ("sim.mean_batch", "requests"),
    ("sim.charged_ns_per_query", "ns"),
    ("sim.cost_model_ratio", "ratio"),
    ("farm.shed", "count"),
    ("farm.expired", "count"),
    ("farm.hedges_fired", "count"),
    ("farm.hedge_wins", "count"),
    ("farm.hedge_useful_frac", "fraction"),
    ("farm.duplicates", "count"),
    ("farm.breaker_opens", "count"),
    ("farm.tier_transitions", "count"),
    ("farm.tier_served.f64", "count"),
    ("farm.tier_served.f32", "count"),
    ("farm.tier_served.i16", "count"),
    ("faults.dispatch_timeouts", "count"),
    ("trace.overhead_frac", "fraction"),
];

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`; `None` below eleven samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload left idle).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The result line every run ends with.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output check of every operation held.
    pub correct: bool,
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// `(name, unit, value)`, in print order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    /// One JSON object. A non-finite value cannot be written as JSON; it
    /// is printed as 0 and marks the run incorrect.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|(_, _, v)| v.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && finite,
            self.attempted,
            self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
    }

    #[test]
    fn result_line_is_json_with_every_digit() {
        let r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", "s", 0.123456789012), ("x", "count", f64::NAN)],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.123456789012, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
