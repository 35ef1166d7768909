//! Runs one benchmark workload and prints its metrics; the last line of
//! standard output is the JSON result.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir> [--spans <file>]
//! ```
//!
//! `perfbench/run.py` builds this binary, gives it a fresh work directory
//! and adds the process's peak memory to the result. An untraced run prints
//! the end-to-end metrics, a traced run (`--trace 1`) the per-layer ones.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::cells::{self, CellKind, CellPlan, CellRun};
use perfbench::chip::TimedChip;
use perfbench::reference::Bracket;
use perfbench::report::{median, ratio, tail, RunResult, END_TO_END, PER_LAYER};
use perfbench::serve;
use perfbench::spans::Recorder;

const USAGE: &str =
    "usage: perfbench --workload <table1-lcng-calib|table1-zoco-durable|serve-sim-onchip> \
                     --seed <n> --seconds <s> --trace <0|1> --work-dir <dir> [--spans <file>]";

/// Seed streams beyond the per-operation ones.
const DEPLOY_STREAM: u64 = 1 << 32;
const WARMUP_STREAM: u64 = 2 << 32;
/// Serving set-ups per run; `setup_s` is their median.
const SERVE_SETUPS: u64 = 25;
/// Untimed pairs that fault in the serving path before timing starts.
const SERVE_WARMUP_PAIRS: u64 = 20;
/// Exec pool size of the training cells. One worker keeps a cell's time
/// independent of how busy the host's other cores are; results are
/// bitwise the same at any pool size.
const POOL_THREADS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Lcng,
    Zoco,
    Serve,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Lcng, Workload::Zoco, Workload::Serve];

    fn name(self) -> &'static str {
        match self {
            Workload::Lcng => "table1-lcng-calib",
            Workload::Zoco => "table1-zoco-durable",
            Workload::Serve => "serve-sim-onchip",
        }
    }

    fn cell(self) -> Option<CellKind> {
        match self {
            Workload::Lcng => Some(CellKind::LcngCalib),
            Workload::Zoco => Some(CellKind::ZocoDurable),
            Workload::Serve => None,
        }
    }

    /// Times each cell's task is built per operation; `setup_s` is the
    /// median over all builds.
    fn builds_per_cell(self) -> usize {
        match self {
            Workload::Lcng => 3,
            Workload::Zoco | Workload::Serve => 1,
        }
    }

    /// Operations of a traced run. Fixed, so that its counts repeat
    /// exactly at a fixed seed.
    fn traced_ops(self) -> u64 {
        match self {
            Workload::Lcng => 2,
            Workload::Zoco => 6,
            Workload::Serve => 600,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    spans: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut work_dir, mut spans) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}; use 0 or 1")),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        spans,
    })
}

/// An independent seed per stream: the SplitMix64 finalizer of
/// `seed + (2·stream + 1)·φ`.
fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(
        stream
            .wrapping_mul(2)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = POOL_THREADS.min(cores);
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: kernel_tier={} exec_pool_threads={threads} available_parallelism={cores}",
        photon_linalg::kernel_tier().name()
    );
    let result = if args.trace {
        traced_run(&args, threads)
    } else {
        timed_run(&args, threads)
    };
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

/// `(name, unit, value)` for every metric of `table`, 0 where `values`
/// has none.
fn in_order(
    table: &[(&'static str, &'static str)],
    values: &BTreeMap<&str, f64>,
) -> Vec<(&'static str, &'static str, f64)> {
    table
        .iter()
        .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
        .collect()
}

fn journal_path(work_dir: &Path, op: u64, tag: &str) -> PathBuf {
    work_dir.join(format!("op{op}-{tag}.journal"))
}

/// One untraced cell: its task built `builds` times (each timed as
/// set-up), then calibrated and trained.
fn untraced_cell(
    plan: &CellPlan,
    seed: u64,
    builds: usize,
    journal: &Path,
    setups: &mut Vec<f64>,
) -> Result<CellRun, String> {
    let mut task = None;
    for _ in 0..builds {
        let (built, secs) = cells::build(plan, seed, None)?;
        setups.push(secs);
        task = Some(built);
    }
    let task = task.ok_or("no task built")?;
    let run = cells::run_cell(
        plan,
        &task.chip,
        &task.train,
        &task.test,
        task.head,
        seed,
        journal,
        None,
    );
    // The journal was only needed for the check; a leftover file is harmless.
    let _ = std::fs::remove_file(journal);
    run
}

/// Timings of an untraced run's operations.
#[derive(Debug, Default)]
struct Timings {
    attempted: u64,
    failed: u64,
    /// Wall seconds per operation.
    op_s: Vec<f64>,
    /// Per operation: wall time over the reference kernel's time around it.
    op_ref: Vec<f64>,
    /// Per operation: requests resolved per reference-kernel time.
    requests_per_ref: Vec<f64>,
    /// The reference kernel's mean time over each interval.
    ref_s: Vec<f64>,
}

impl Timings {
    /// Runs `op(0)`, `op(1)`, … back to back until `budget` has passed
    /// since `start` (at least one), bracketed by reference-kernel
    /// measurements, and scales each operation by the kernel's time around
    /// it. `op` returns its wall seconds and the requests it resolved.
    fn measure(
        &mut self,
        start: Instant,
        budget: Duration,
        mut op: impl FnMut(u64) -> Result<(f64, u64), String>,
    ) {
        let mut bracket = Bracket::open();
        let mut pending = Vec::new();
        let mut i = 0;
        while i == 0 || start.elapsed() < budget {
            self.attempted += 1;
            match op(i) {
                Ok(done) => pending.push(done),
                Err(why) => {
                    println!("op {i} FAILED: {why}");
                    self.failed += 1;
                }
            }
            i += 1;
            if bracket.due() || start.elapsed() >= budget {
                let r = bracket.close();
                self.ref_s.push(r);
                for (secs, requests) in pending.drain(..) {
                    self.op_s.push(secs);
                    self.op_ref.push(secs / r);
                    self.requests_per_ref.push(requests as f64 * r / secs);
                }
            }
        }
    }
}

/// The untraced run behind the end-to-end metrics: set-up, then operations
/// back to back until `--seconds` have passed.
fn timed_run(args: &Args, threads: usize) -> RunResult {
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut t = Timings::default();

    match args.workload.cell() {
        Some(kind) => {
            let plan = CellPlan::new(kind, threads);
            let builds = args.workload.builds_per_cell();
            let mut accuracies = Vec::new();
            t.measure(start, budget, |op| {
                let seed = derive(args.seed, op);
                let journal = journal_path(&args.work_dir, op, "cell");
                let before = setups.len();
                let run = untraced_cell(&plan, seed, builds, &journal, &mut setups)?;
                println!(
                    "op {op}: setup {:.4} s, calibrate {:.4} s, train {:.4} s, {} queries, test_acc {:.4}",
                    median(&setups[before..]),
                    run.calibrate_s,
                    run.train_s,
                    run.queries,
                    run.accuracy
                );
                accuracies.push(run.accuracy);
                Ok((run.op_s(), run.queries))
            });
            let per_op: Vec<String> = t.op_ref.iter().map(|r| format!("{r:.1}")).collect();
            println!(
                "cells: {} ok of {}; mean test_acc {:.4}; op times in ref: {}",
                t.op_s.len(),
                t.attempted,
                accuracies.iter().sum::<f64>() / accuracies.len().max(1) as f64,
                per_op.join(" ")
            );
        }
        None => {
            let mut chip = None;
            for j in 0..SERVE_SETUPS {
                let t = Instant::now();
                let deployed = serve::deploy(derive(args.seed, DEPLOY_STREAM + j));
                setups.push(t.elapsed().as_secs_f64());
                chip.get_or_insert(deployed);
            }
            let chip = chip.expect("at least one set-up");
            for j in 0..SERVE_WARMUP_PAIRS {
                t.attempted += 1;
                if let Err(why) = serve::run_pair(&chip, derive(args.seed, WARMUP_STREAM + j), None)
                {
                    println!("warm-up pair {j} FAILED: {why}");
                    t.failed += 1;
                }
            }
            t.measure(start, budget, |op| {
                let pair = serve::run_pair(&chip, derive(args.seed, op), None)?;
                Ok((pair.op_s(), pair.resolved()))
            });
            let tail_line = match tail(&t.op_s) {
                Some((pct, secs)) => {
                    format!(
                        "p{pct:.2} {secs:.6} s (10 of {} pairs beyond)",
                        t.op_s.len()
                    )
                }
                None => "n/a (fewer than 11 pairs)".into(),
            };
            println!(
                "pairs: {} timed after {SERVE_WARMUP_PAIRS} warm-up; tail {tail_line}",
                t.op_s.len()
            );
        }
    }
    println!(
        "wall: op p50 {:.6} s; reference kernel p50 {:.6} s over {} intervals",
        median(&t.op_s),
        median(&t.ref_s),
        t.ref_s.len()
    );
    let values = BTreeMap::from([
        ("setup_s", median(&setups)),
        ("op_p50_ref", median(&t.op_ref)),
        ("requests_per_ref", median(&t.requests_per_ref)),
        (
            "good_frac",
            (t.attempted - t.failed) as f64 / t.attempted.max(1) as f64,
        ),
    ]);
    RunResult {
        correct: t.failed == 0,
        attempted: t.attempted,
        failed: t.failed,
        metrics: in_order(END_TO_END, &values),
    }
}

/// One traced operation: the same op untraced and traced, outputs compared
/// bitwise. Returns the untraced and traced op seconds and the op's
/// per-layer figures.
type TracedOp = (f64, f64, BTreeMap<&'static str, f64>);

fn traced_cell(
    plan: &CellPlan,
    seed: u64,
    op: u64,
    work_dir: &Path,
    rec: &std::sync::Arc<Recorder>,
) -> Result<TracedOp, String> {
    let plain = untraced_cell(
        plan,
        seed,
        1,
        &journal_path(work_dir, op, "plain"),
        &mut Vec::new(),
    )?;
    rec.set_op(op + 1);
    let (task, _) = cells::build(plan, seed, Some(rec))?;
    let chip = TimedChip::new(task.chip, rec.clone());
    let journal = journal_path(work_dir, op, "traced");
    let traced = cells::run_cell(
        plan,
        &chip,
        &task.train,
        &task.test,
        task.head,
        seed,
        &journal,
        Some(rec),
    );
    let _ = std::fs::remove_file(&journal);
    let traced = traced?;
    if !plain.same_outputs(&traced) {
        return Err(
            "traced cell's theta, test_acc or queries differ from the untraced cell's".into(),
        );
    }
    let layers = cells::layers(op + 1, &rec.spans(), &rec.events(), &traced)?;
    Ok((plain.op_s(), traced.op_s(), layers))
}

fn traced_pair(
    chip: &photon_photonics::FabricatedChip,
    root_seed: u64,
    op: u64,
    rec: &Recorder,
) -> Result<TracedOp, String> {
    let plain = serve::run_pair(chip, root_seed, None)?;
    rec.set_op(op + 1);
    let traced = serve::run_pair(chip, root_seed, Some(rec))?;
    let (model_coalesce, model_resilient) = serve::model_only(&traced, rec)?;
    if !plain.same_outputs(&traced) {
        return Err("traced pair's reports differ from the untraced pair's".into());
    }
    let mut layers = serve::layers(&traced);
    layers.insert("sim.coalesce_loop_s", model_coalesce);
    layers.insert("sim.resilient_loop_s", model_resilient);
    layers.insert(
        "photonics.serve_s",
        (traced.coalesce_s - model_coalesce) + (traced.resilient_s - model_resilient),
    );
    Ok((plain.op_s(), traced.op_s(), layers))
}

/// The traced run behind the per-layer metrics: a fixed number of
/// operations, each run untraced and then traced.
fn traced_run(args: &Args, threads: usize) -> RunResult {
    let rec = Recorder::new();
    let ops = args.workload.traced_ops();
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut failed = 0;
    let plan = args
        .workload
        .cell()
        .map(|kind| CellPlan::new(kind, threads));
    let chip = plan
        .is_none()
        .then(|| serve::deploy(derive(args.seed, DEPLOY_STREAM)));
    for op in 0..ops {
        let seed = derive(args.seed, op);
        let result = match (&plan, &chip) {
            (Some(plan), _) => traced_cell(plan, seed, op, &args.work_dir, &rec),
            (None, Some(chip)) => traced_pair(chip, seed, op, &rec),
            (None, None) => unreachable!("a workload is either a cell or a serving pair"),
        };
        match result {
            Ok((plain, traced, layers)) => {
                plain_s.push(plain);
                traced_s.push(traced);
                for (k, v) in layers {
                    *sums.entry(k).or_insert(0.0) += v;
                }
            }
            Err(why) => {
                println!("op {op} FAILED: {why}");
                failed += 1;
            }
        }
    }
    if let Some(path) = &args.spans {
        if let Err(e) = rec.write_jsonl(path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }

    let values = per_layer(&sums, &plain_s, &traced_s, args.workload);
    let sane = sanity(args.workload, &values);
    print_traced_summary(args.workload, &values, plain_s.len());
    RunResult {
        correct: failed == 0 && sane,
        attempted: ops,
        failed,
        metrics: in_order(PER_LAYER, &values),
    }
}

/// Per-operation means of the summed figures, plus the ratios, which are
/// taken of the sums.
fn per_layer(
    sums: &BTreeMap<&'static str, f64>,
    plain_s: &[f64],
    traced_s: &[f64],
    workload: Workload,
) -> BTreeMap<&'static str, f64> {
    let get = |k: &str| sums.get(k).copied().unwrap_or(0.0);
    let mut m: BTreeMap<&'static str, f64> = sums
        .iter()
        .map(|(k, v)| (*k, ratio(*v, plain_s.len() as f64)))
        .collect();
    let (incremental, misses) = (get("photonics.incremental"), get("photonics.cache_misses"));
    m.insert(
        "photonics.incremental_frac",
        ratio(incremental, incremental + misses),
    );
    let measured = 1e9 * ratio(get("photonics.serve_s"), get("photonics.serve_queries"));
    m.insert("photonics.serve_ns_per_query", measured);
    let mean_batch = ratio(get("sim.batched_requests"), get("sim.dispatches"));
    m.insert("sim.mean_batch", mean_batch);
    if mean_batch > 0.0 {
        let charged = serve::charged_ns_per_query(mean_batch);
        m.insert("sim.charged_ns_per_query", charged);
        m.insert("sim.cost_model_ratio", ratio(charged, measured));
    }
    m.insert(
        "farm.hedge_useful_frac",
        ratio(get("farm.hedge_wins"), get("farm.hedges_fired")),
    );
    if workload == Workload::Serve {
        m.insert(
            "sim.pair_tail_s",
            tail(plain_s).map_or(0.0, |(_, secs)| secs),
        );
    }
    let (plain, traced): (f64, f64) = (plain_s.iter().sum(), traced_s.iter().sum());
    m.insert("trace.overhead_frac", ratio(traced, plain) - 1.0);
    m
}

/// Checks the contrasts each workload was chosen for, so that a workload
/// rerouted away from its layer fails loudly.
fn sanity(workload: Workload, m: &BTreeMap<&'static str, f64>) -> bool {
    let mut ok = true;
    let mut check = |holds: bool, what: String| {
        println!("sanity: {what}: {}", if holds { "ok" } else { "FAILED" });
        ok &= holds;
    };
    for (prefix, owner) in [
        ("calib.", Workload::Lcng),
        ("core.journal.", Workload::Zoco),
        ("sim.", Workload::Serve),
        ("farm.", Workload::Serve),
    ] {
        let active = m.iter().any(|(k, v)| k.starts_with(prefix) && *v != 0.0);
        let expected = workload == owner;
        check(
            active == expected,
            format!(
                "{prefix}* {} here (expected only on {})",
                if active { "active" } else { "idle" },
                owner.name()
            ),
        );
    }
    let frac = m.get("photonics.incremental_frac").copied().unwrap_or(0.0);
    match workload {
        Workload::Lcng => check(
            frac < 0.5,
            format!("photonics.incremental_frac {frac:.3} < 0.5 (Gaussian probes recompile)"),
        ),
        Workload::Zoco => check(
            frac > 0.5,
            format!("photonics.incremental_frac {frac:.3} > 0.5 (coordinate probes take the rank-1 path)"),
        ),
        Workload::Serve => {}
    }
    if workload != Workload::Serve {
        let fisher = m.get("core.queries.fisher").copied().unwrap_or(0.0);
        check(
            fisher == 0.0,
            format!("core.queries.fisher {fisher} == 0 (curvature comes from the model)"),
        );
    }
    ok
}

fn print_traced_summary(workload: Workload, m: &BTreeMap<&'static str, f64>, ok_ops: usize) {
    let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
    println!(
        "traced {ok_ops} ops; trace overhead {:+.2}% of untraced op time",
        100.0 * get("trace.overhead_frac")
    );
    match workload {
        Workload::Serve => {
            println!(
                "cost model: the sim charges {:.1} ns/request at mean batch {:.2}; \
                 the pinned serve measured {:.1} ns/request (on-chip minus model-only \
                 host time, a difference); ratio {:.2}",
                get("sim.charged_ns_per_query"),
                get("sim.mean_batch"),
                get("photonics.serve_ns_per_query"),
                get("sim.cost_model_ratio")
            );
            println!(
                "tiers: the sim charged {:.1} f32 and {:.1} i16 requests per pair at modelled \
                 speedups, but run_resilient_on_chip serves every request on the pinned f64 \
                 path; the f32 and i16 tiers are never executed on the chip and stay unmeasured",
                get("farm.tier_served.f32"),
                get("farm.tier_served.i16")
            );
        }
        _ => println!(
            "cell: train {:.4} s = warm start {:.4} s + fine-tune {:.4} s (self {:.4} s, chip batches \
             {:.4} s busy, pins {:.4} s); calibrate {:.4} s (chip {:.4} s)",
            get("core.train_s"),
            get("core.warm_start_s"),
            get("core.finetune_s"),
            get("core.self_s"),
            get("photonics.batch_busy_s"),
            get("photonics.pin_s"),
            get("calib.calibrate_s"),
            get("calib.chip_s"),
        ),
    }
}
