//! Plain-text tables and CSV series — the output format of the experiment
//! binaries.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use photon_trace::{LedgerCounts, TraceEvent};

use crate::trainer::{RecoveryEvent, TrainOutcome};

/// A fixed-width plain-text table builder.
///
/// # Examples
///
/// ```
/// use photon_core::TextTable;
///
/// let mut t = TextTable::new(&["method", "accuracy"]);
/// t.row(&["ZO-LCNG", "94.7%"]);
/// let s = t.render();
/// assert!(s.contains("method"));
/// assert!(s.contains("ZO-LCNG"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (missing cells render empty; extra cells are kept).
    pub fn row(&mut self, cells: &[&str]) {
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of owned strings.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with a separator line under the header.
    pub fn render(&self) -> String {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(out, "{cell:<w$}  ");
            }
            let _ = writeln!(out);
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// A CSV series writer for figure data (one header row, then records).
///
/// Values are written with full precision; strings containing commas or
/// quotes are quoted.
#[derive(Debug, Clone)]
pub struct CsvWriter {
    headers: Vec<String>,
    records: Vec<Vec<String>>,
}

impl CsvWriter {
    /// Creates a writer with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        CsvWriter {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            records: Vec::new(),
        }
    }

    /// Appends a record of raw string cells.
    pub fn record(&mut self, cells: &[&str]) {
        self.records
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when no records were added.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    fn escape(cell: &str) -> String {
        if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    }

    /// Serializes to CSV text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let write_line = |out: &mut String, cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| Self::escape(c)).collect();
            let _ = writeln!(out, "{}", line.join(","));
        };
        write_line(&mut out, &self.headers);
        for rec in &self.records {
            write_line(&mut out, rec);
        }
        out
    }

    /// Writes the CSV to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.render())
    }
}

/// Renders a numeric series as a Unicode sparkline (`▁▂▃▄▅▆▇█`), for
/// at-a-glance convergence curves in terminal output.
///
/// Returns an empty string for an empty series; a constant series renders
/// at mid height.
///
/// # Examples
///
/// ```
/// use photon_core::sparkline;
///
/// let s = sparkline(&[3.0, 2.0, 1.0, 0.5, 0.2]);
/// assert_eq!(s.chars().count(), 5);
/// assert!(s.starts_with('█'));
/// ```
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return "·".repeat(values.len());
    }
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                '·'
            } else if span <= 0.0 {
                BARS[4]
            } else {
                let t = ((v - min) / span * 7.0).round() as usize;
                BARS[t.min(7)]
            }
        })
        .collect()
}

/// Renders the recovery actions of a training run as a plain-text block:
/// an aggregate summary line followed by one line per structured event.
///
/// Returns `"no recovery actions"` for a quiet run, so callers can embed
/// the result unconditionally.
pub fn recovery_report(outcome: &TrainOutcome) -> String {
    let r = outcome.recovery;
    if r.is_quiet() && outcome.recovery_events.is_empty() {
        return "no recovery actions".to_string();
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "recovery summary [{}]: {} retries, {} rejected probes, {} rollbacks, {} recalibrations",
        outcome.method, r.retries, r.rejected_probes, r.rollbacks, r.recalibrations
    );
    for event in &outcome.recovery_events {
        match event {
            RecoveryEvent::Rollback {
                epoch,
                iteration,
                loss,
                threshold,
                new_lr,
            } => {
                let _ = writeln!(
                    out,
                    "  rollback   epoch {epoch:>3} iter {iteration:>5}: loss {loss:.4e} \
                     > threshold {threshold:.4e}, lr -> {new_lr:.3e}"
                );
            }
            RecoveryEvent::Recalibration {
                epoch,
                fidelity_before,
                fidelity_after,
                queries,
                adopted,
            } => {
                let verdict = if *adopted { "adopted" } else { "rejected" };
                let _ = writeln!(
                    out,
                    "  recalibrate epoch {epoch:>3}: fidelity {fidelity_before:.4} -> \
                     {fidelity_after:.4} ({queries} queries, {verdict})"
                );
            }
        }
    }
    out
}

/// Downsamples a series to at most `max_points` by striding, always keeping
/// the final point — used to fit long training histories into a sparkline.
pub fn downsample(values: &[f64], max_points: usize) -> Vec<f64> {
    assert!(max_points > 0, "need at least one point");
    if values.len() <= max_points {
        return values.to_vec();
    }
    let stride = values.len().div_ceil(max_points);
    let mut out: Vec<f64> = values.iter().copied().step_by(stride).collect();
    if let Some(&last) = values.last() {
        if out.last() != Some(&last) {
            out.push(last);
        }
    }
    out
}

/// Renders a recorded trace (e.g. from a
/// [`photon_trace::MemorySink`]) as a plain-text block: run header,
/// per-epoch progress lines, the aggregated query ledger, and the
/// cache/pool/reconciliation footers.
///
/// Returns `"no trace events"` for an empty slice, so callers can embed the
/// result unconditionally.
#[must_use]
pub fn trace_summary(events: &[TraceEvent]) -> String {
    if events.is_empty() {
        return "no trace events".to_string();
    }
    let mut out = String::new();
    let mut ledger = LedgerCounts::new();
    let mut epochs = 0u64;
    let mut epoch_losses: Vec<f64> = Vec::new();
    for event in events {
        match event {
            TraceEvent::RunStart {
                method,
                epochs,
                batch_size,
                probes,
                kernel,
            } => {
                let _ = writeln!(
                    out,
                    "run [{method}]: {epochs} epochs, batch {batch_size}, Q={probes}, \
                     kernel {kernel}"
                );
            }
            TraceEvent::EpochSpan {
                epoch,
                train_loss,
                test_accuracy,
                learning_rate,
                wall_secs,
                training_queries,
                ..
            } => {
                epochs = epochs.max(*epoch);
                epoch_losses.push(*train_loss);
                let acc = match test_accuracy {
                    Some(a) => format!("{:.2}%", a * 100.0),
                    None => "--".to_string(),
                };
                let _ = writeln!(
                    out,
                    "  epoch {epoch:>3}: loss {train_loss:.4e}  acc {acc:>7}  \
                     lr {learning_rate:.3e}  queries {training_queries:>8}  \
                     t {wall_secs:.2}s"
                );
            }
            TraceEvent::QueryLedger {
                category, queries, ..
            } => ledger.add(*category, *queries),
            TraceEvent::Calibration {
                queries,
                initial_cost,
                fit_cost,
                iterations,
            } => {
                let _ = writeln!(
                    out,
                    "  calibration: cost {initial_cost:.4e} -> {fit_cost:.4e} \
                     in {iterations} iters ({queries} queries)"
                );
            }
            TraceEvent::Rollback {
                epoch,
                iteration,
                loss,
                new_lr,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "  rollback    epoch {epoch:>3} iter {iteration:>5}: \
                     loss {loss:.4e}, lr -> {new_lr:.3e}"
                );
            }
            TraceEvent::Recalibration {
                epoch,
                fidelity_before,
                fidelity_after,
                adopted,
                ..
            } => {
                let verdict = if *adopted { "adopted" } else { "rejected" };
                let _ = writeln!(
                    out,
                    "  recalibrate epoch {epoch:>3}: fidelity \
                     {fidelity_before:.4} -> {fidelity_after:.4} ({verdict})"
                );
            }
            TraceEvent::FaultStats {
                step,
                dropped,
                spiked,
                bursts,
            } => {
                let _ = writeln!(
                    out,
                    "  faults      step {step:>5}: {dropped} dropped, \
                     {spiked} spiked, {bursts} bursts"
                );
            }
            TraceEvent::CacheStats {
                hits,
                misses,
                invalidations,
                incremental,
                forced_recompiles,
                skipped_stages,
            } => {
                let _ = writeln!(
                    out,
                    "cache: {hits} hits, {misses} full compiles, {incremental} incremental, \
                     {forced_recompiles} forced, {invalidations} invalidations, \
                     {skipped_stages} skipped stages"
                );
            }
            TraceEvent::PoolStats {
                threads,
                map_calls,
                items,
                peak_worker_share_milli,
            } => {
                let _ = writeln!(
                    out,
                    "pool: {threads} threads, {map_calls} calls, {items} items, \
                     peak worker share {:.1}%",
                    *peak_worker_share_milli as f64 / 10.0
                );
            }
            TraceEvent::JournalFlush {
                epoch,
                records,
                bytes,
            } => {
                let _ = writeln!(
                    out,
                    "  journal     epoch {epoch:>3}: record {records} flushed ({bytes} bytes)"
                );
            }
            TraceEvent::Resume {
                epoch,
                records_replayed,
                truncated_bytes,
            } => {
                let _ = writeln!(
                    out,
                    "resume: epoch {epoch} restored from {records_replayed} records \
                     ({truncated_bytes} torn bytes truncated)"
                );
            }
            TraceEvent::RunEnd {
                training_queries,
                eval_queries,
                run_queries,
                chip_query_count,
                wall_secs,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "end: {training_queries} training + {eval_queries} eval = \
                     {run_queries} run queries (chip total {chip_query_count}) \
                     in {wall_secs:.2}s"
                );
            }
            TraceEvent::ChipHealth {
                worker,
                from,
                to,
                reason,
            } => {
                let _ = writeln!(out, "  chip        {worker}: {from} -> {to} ({reason})");
            }
            TraceEvent::JobState {
                job,
                tenant,
                state,
                worker,
                detail,
            } => {
                let place = if worker.is_empty() {
                    String::new()
                } else {
                    format!(" on {worker}")
                };
                let note = if detail.is_empty() {
                    String::new()
                } else {
                    format!(" ({detail})")
                };
                let _ = writeln!(out, "  job         {job} [{tenant}]: {state}{place}{note}");
            }
            TraceEvent::TenantLedger {
                tenant,
                queries,
                jobs_completed,
                jobs_rejected,
            } => {
                let _ = writeln!(
                    out,
                    "tenant {tenant}: {queries} chip queries, \
                     {jobs_completed} completed, {jobs_rejected} rejected"
                );
            }
            TraceEvent::CanaryVerdict {
                cycle,
                samples,
                baseline_loss,
                shadow_loss,
                p_value,
                promote,
            } => {
                let verdict = if *promote { "promote" } else { "reject" };
                let _ = writeln!(
                    out,
                    "  canary      cycle {cycle:>3}: loss {baseline_loss:.4e} vs \
                     {shadow_loss:.4e} over {samples}/arm, p={p_value:.4} -> {verdict}"
                );
            }
            TraceEvent::Promotion {
                cycle,
                step,
                shadow_epochs,
                shadow_loss,
            } => {
                let _ = writeln!(
                    out,
                    "  promote     cycle {cycle:>3} step {step:>5}: shadow theta \
                     ({shadow_epochs} epochs, loss {shadow_loss:.4e}) pinned"
                );
            }
            TraceEvent::ShadowRollback {
                cycle,
                step,
                reason,
            } => {
                let _ = writeln!(
                    out,
                    "  shadow-drop cycle {cycle:>3} step {step:>5}: {reason}"
                );
            }
            TraceEvent::ServingStats {
                tenant,
                arrivals,
                completed,
                shed,
                p50_ns,
                p99_ns,
                p999_ns,
                throughput_rps,
                peak_queue_depth,
                mean_batch,
            } => {
                let _ = writeln!(
                    out,
                    "serving {tenant}: {completed}/{arrivals} served ({shed} shed), \
                     {throughput_rps:.0} rps, p50/p99/p999 \
                     {:.1}/{:.1}/{:.1} us, peak queue {peak_queue_depth}, \
                     mean batch {mean_batch:.2}",
                    p50_ns / 1e3,
                    p99_ns / 1e3,
                    p999_ns / 1e3,
                );
            }
        }
    }
    if epoch_losses.len() >= 4 {
        // Loss quantiles give long traced runs a one-line shape summary
        // (median vs p90 separating steady progress from spiky rollbacks).
        let q = crate::stats::percentiles(&epoch_losses, &[0.5, 0.9]);
        let _ = writeln!(
            out,
            "epoch loss quantiles: p50 {:.4e}, p90 {:.4e} over {} epochs",
            q[0],
            q[1],
            epoch_losses.len()
        );
    }
    if ledger.total() > 0 {
        let _ = writeln!(out, "query ledger ({} total):", ledger.total());
        for (category, queries) in ledger.iter() {
            if queries > 0 {
                let _ = writeln!(out, "  {:<16} {queries:>10}", category.label());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_summary_renders_ledger_and_reconciliation() {
        use photon_trace::QueryCategory;
        assert_eq!(trace_summary(&[]), "no trace events");
        let events = vec![
            TraceEvent::RunStart {
                method: "ZO-LCNG(calib)".to_string(),
                epochs: 1,
                batch_size: 8,
                probes: 20,
                kernel: "scalar".to_string(),
            },
            TraceEvent::QueryLedger {
                epoch: 1,
                category: QueryCategory::Probe,
                queries: 40,
            },
            TraceEvent::QueryLedger {
                epoch: 1,
                category: QueryCategory::Eval,
                queries: 10,
            },
            TraceEvent::EpochSpan {
                epoch: 1,
                train_loss: 0.5,
                test_accuracy: Some(0.9),
                test_loss: Some(0.4),
                learning_rate: 0.01,
                wall_secs: 0.1,
                training_queries: 40,
            },
            TraceEvent::RunEnd {
                method: "ZO-LCNG(calib)".to_string(),
                training_queries: 40,
                eval_queries: 10,
                run_queries: 50,
                chip_query_count: 50,
                wall_secs: 0.1,
            },
        ];
        let s = trace_summary(&events);
        assert!(s.contains("run [ZO-LCNG(calib)]"));
        assert!(s.contains("kernel scalar"));
        assert!(s.contains("query ledger (50 total)"));
        assert!(s.contains("probe"));
        assert!(s.contains("90.00%"));
        assert!(s.contains("40 training + 10 eval = 50 run queries"));
    }

    #[test]
    fn trace_summary_renders_serving_stats() {
        let events = vec![TraceEvent::ServingStats {
            tenant: "alice".to_string(),
            arrivals: 1000,
            completed: 990,
            shed: 10,
            p50_ns: 12_500.0,
            p99_ns: 96_000.0,
            p999_ns: 250_000.0,
            throughput_rps: 131_000.0,
            peak_queue_depth: 37,
            mean_batch: 7.5,
        }];
        let s = trace_summary(&events);
        assert!(
            s.contains("serving alice: 990/1000 served (10 shed)"),
            "{s}"
        );
        assert!(s.contains("131000 rps"), "{s}");
        assert!(s.contains("12.5/96.0/250.0 us"), "{s}");
        assert!(s.contains("peak queue 37"), "{s}");
        assert!(s.contains("mean batch 7.50"), "{s}");
    }

    #[test]
    fn trace_summary_renders_online_recal_events() {
        let events = vec![
            TraceEvent::CanaryVerdict {
                cycle: 1,
                samples: 8,
                baseline_loss: 0.8,
                shadow_loss: 0.2,
                p_value: 0.0125,
                promote: true,
            },
            TraceEvent::Promotion {
                cycle: 1,
                step: 320,
                shadow_epochs: 3,
                shadow_loss: 0.2,
            },
            TraceEvent::ShadowRollback {
                cycle: 2,
                step: 640,
                reason: "canary_not_better".to_string(),
            },
        ];
        let s = trace_summary(&events);
        assert!(s.contains("canary      cycle   1"), "{s}");
        assert!(s.contains("p=0.0125 -> promote"), "{s}");
        assert!(s.contains("promote     cycle   1 step   320"), "{s}");
        assert!(s.contains("3 epochs"), "{s}");
        assert!(
            s.contains("shadow-drop cycle   2 step   640: canary_not_better"),
            "{s}"
        );
    }

    #[test]
    fn trace_summary_loss_quantile_footer() {
        let events: Vec<TraceEvent> = (1..=10)
            .map(|epoch| TraceEvent::EpochSpan {
                epoch,
                train_loss: epoch as f64 / 10.0,
                test_accuracy: None,
                test_loss: None,
                learning_rate: 0.01,
                wall_secs: 0.1,
                training_queries: 40,
            })
            .collect();
        let s = trace_summary(&events);
        assert!(s.contains("epoch loss quantiles"), "{s}");
        // p50 of 0.1..=1.0 is 0.55 via linear interpolation.
        assert!(s.contains("p50 5.5000e-1"), "{s}");
        assert!(s.contains("over 10 epochs"), "{s}");
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[]), "");
        let flat = sparkline(&[1.0, 1.0, 1.0]);
        assert_eq!(flat.chars().count(), 3);
        assert!(flat.chars().all(|c| c == '▅'));
        let s = sparkline(&[0.0, 1.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[1], '█');
        // NaN renders as a placeholder, finite neighbours still scale.
        let with_nan = sparkline(&[0.0, f64::NAN, 1.0]);
        assert!(with_nan.contains('·'));
    }

    #[test]
    fn downsample_preserves_last() {
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let d = downsample(&v, 10);
        assert!(d.len() <= 11);
        assert_eq!(*d.last().unwrap(), 99.0);
        // Short series pass through unchanged.
        assert_eq!(downsample(&[1.0, 2.0], 10), vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn downsample_zero_points_panics() {
        let _ = downsample(&[1.0], 0);
    }

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new(&["a", "long-header"]);
        t.row(&["xxxxxx", "1"]);
        t.row_owned(vec!["y".into(), "2".into(), "extra".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].contains("long-header"));
        assert!(lines[1].starts_with('-'));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = TextTable::new(&["col"]);
        assert!(t.is_empty());
        let s = t.render();
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn csv_roundtrip() {
        let mut w = CsvWriter::new(&["epoch", "loss"]);
        w.record(&["1", "0.5"]);
        w.record(&["2", "0.25"]);
        let s = w.render();
        assert_eq!(s, "epoch,loss\n1,0.5\n2,0.25\n");
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn csv_escaping() {
        let mut w = CsvWriter::new(&["name"]);
        w.record(&["has,comma"]);
        w.record(&["has\"quote"]);
        let s = w.render();
        assert!(s.contains("\"has,comma\""));
        assert!(s.contains("\"has\"\"quote\""));
    }

    #[test]
    fn csv_writes_to_disk() {
        let dir = std::env::temp_dir().join("photon_zo_csv_test");
        let path = dir.join("nested/out.csv");
        let mut w = CsvWriter::new(&["x"]);
        w.record(&["42"]);
        w.write_to(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert!(back.contains("42"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
