#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, and lint-clean clippy.
# Run from anywhere; operates on the workspace root. The build environment is
# fully offline (all external deps are vendored), hence --offline throughout.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo clippy --offline --all-targets --workspace -- -D warnings

# Rustdoc gate: every photon-* crate and the facade document without a
# warning, so a doc link to a deleted or private item fails here. The
# vendored shims under vendor/ are excluded.
RUSTDOCFLAGS='-D warnings' cargo doc --offline --no-deps --workspace \
    --exclude rand --exclude proptest --exclude criterion --exclude crossbeam --exclude parking_lot

# Benchmark harness gate: perfbench is a cargo workspace of its own that
# depends on the repository's crates by path, so a workspace build never
# compiles it. Build and test it here, into the target directory
# perfbench/run.py uses, so an API change that breaks the benchmark fails
# this gate rather than the benchmark run.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --manifest-path perfbench/Cargo.toml
CARGO_TARGET_DIR=.bench_build cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

# Robustness gate: the fault-injection suite plus a smoke run of the
# self-healing training demo.
cargo test -q --offline --test fault_injection
cargo run --release --offline --example faulty_chip_training >/dev/null

# Telemetry gate: run the traced end-to-end demo (it asserts internally that
# the query ledger reconciles with chip.query_count()), then re-check the
# JSONL artifact from the outside: every line parses, and the per-category
# query_ledger events sum exactly to the chip's final counter.
cargo run --release --offline --example traced_training >/dev/null
python3 - <<'EOF'
import json
events = []
with open("results/trace_demo.jsonl") as f:
    for line in f:
        events.append(json.loads(line))
assert events, "trace_demo.jsonl is empty"
ledgered = sum(e["queries"] for e in events if e["type"] == "query_ledger")
run_end = [e for e in events if e["type"] == "run_end"]
assert len(run_end) == 1, f"expected one run_end event, got {len(run_end)}"
counted = run_end[0]["chip_query_count"]
assert ledgered == counted, f"query ledger {ledgered} != chip query count {counted}"
categories = {e["category"] for e in events if e["type"] == "query_ledger"}
assert "calibration" in categories and "probe" in categories, f"missing categories: {categories}"
print(f"ci: telemetry ledger reconciles ({ledgered} queries across {sorted(categories)})")
EOF

# Durability gate: SIGKILL a journaled run at a seeded-pseudo-random
# instant, resume from the (possibly torn) journal, and require the resumed
# journal — every epoch's state and record, final parameters included — to
# be byte-identical to an uninterrupted control's, at worker pools 1 and 3.
scripts/chaos_resume.sh

# Farm chaos gate: the multi-tenant chip farm under a scripted worker kill
# and a hang-prone lab link whose watchdog timeouts count against that
# worker's health monitor. Every submitted job must end Completed —
# bitwise-equal to an uninterrupted single-chip run of the same spec — or
# Rejected with a typed reason: zero lost jobs, and the per-tenant ledgers
# must reconcile exactly with the per-worker and per-job chip query
# counters (the example exits non-zero otherwise). Pinned to the scalar
# kernel so the gate replays identically on every host.
PHOTON_KERNEL=scalar cargo test -q --offline --test farm_chaos
PHOTON_KERNEL=scalar cargo run --release --offline --example chip_farm >/dev/null

# Perf gate: quick run of the compiled-vs-interpreted forward bench. This
# regenerates BENCH_gemm.json at the workspace root and fails loudly if the
# compiled path stops beating the interpreted one (guards against silent
# regressions in the GEMM/compile plumbing).
cargo bench -q --offline -p photon-bench --bench gemm_forward >/dev/null
python3 - <<'EOF'
import json
with open("BENCH_gemm.json") as f:
    report = json.load(f)
speedup = report["speedup_compiled_vs_interpreted"]
assert speedup == speedup and speedup > 1.0, f"compiled path slower than interpreted: {speedup}"
print(f"ci: gemm_forward speedup {speedup:.2f}x")
EOF

# Pool-scaling bench: regenerates BENCH_parallel.json (the ZO probe sweep
# at every pool size this host can run concurrently).
cargo bench -q --offline -p photon-bench --bench probe_eval >/dev/null

# Fast-path gate: the equivalence property suites must hold on BOTH kernel
# tiers — the portable scalar reference (PHOTON_KERNEL=scalar) and whatever
# SIMD tier the host dispatches natively (AVX2-FMA / NEON / scalar). This is
# what makes the vector kernels trustworthy: same tests, both arithmetics.
PHOTON_KERNEL=scalar cargo test -q --offline --test fast_path --test compiled_equivalence
cargo test -q --offline --test fast_path --test compiled_equivalence

# Fast-path perf gate: smoke-run the tier-stack bench. Regenerates
# BENCH_simd.json and fails if no fast tier clears 2x over the plain
# compiled f64 baseline (the incremental rank-1 tier is kernel-independent,
# so this holds even on scalar-only hosts).
cargo bench -q --offline -p photon-bench --bench simd_forward >/dev/null
python3 - <<'EOF'
import json
with open("BENCH_simd.json") as f:
    report = json.load(f)
tiers = {r["tier"]: r["speedup_vs_f64_full"] for r in report["results"]}
assert tiers.get("f64-full") == 1.0, f"baseline must be 1.0x: {tiers}"
fast = {t: s for t, s in tiers.items() if t != "f64-full" and s is not None}
assert fast, f"no fast tiers measured: {tiers}"
best_tier, best = max(fast.items(), key=lambda kv: kv[1])
assert best >= 2.0, f"no fast tier reaches 2x over compiled f64: {tiers}"
print(f"ci: simd_forward best tier {best_tier} at {best:.2f}x (kernel {report['kernel']})")
EOF

# Serving-sim gate. Three properties make "a million requests" a number
# you can trust:
#   1. No wall clock anywhere in the simulator crate — all timing is
#      virtual, so reports are host-independent (grep-gated here).
#   2. Bitwise determinism: the integration suite asserts same-seed
#      replay across runs and PHOTON_THREADS settings, the golden suite
#      pins the exact JSON of a fixed set of runs, and the example
#      (which reconciles chip query counters against simulated
#      completions) must print byte-identical output on back-to-back runs.
#   3. The headline claim: microbatch coalescing must not lose to
#      uncoalesced serving on any benchmarked workload (and the JSON rows
#      must carry tail latencies plus the host-honesty fields).
if grep -rn "Instant::now" crates/sim/src crates/farm/src/resilience.rs; then
    echo "ci: wall-clock read inside the serving/resilience layer breaks virtual-time determinism" >&2
    exit 1
fi
PHOTON_KERNEL=scalar cargo test -q --offline --test serving_sim --test serving_golden
mkdir -p results
PHOTON_KERNEL=scalar cargo run --release --offline --example serving_sim >results/serving_sim_a.txt
PHOTON_KERNEL=scalar cargo run --release --offline --example serving_sim >results/serving_sim_b.txt
cmp results/serving_sim_a.txt results/serving_sim_b.txt
echo "ci: serving_sim example output is byte-identical across runs"
PHOTON_KERNEL=scalar cargo bench -q --offline -p photon-bench --bench serving >/dev/null
python3 - <<'EOF'
import json
with open("BENCH_serving.json") as f:
    report = json.load(f)
rows = report["results"]
required = {"workload", "mode", "throughput_rps", "p50_ns", "p99_ns", "p999_ns",
            "kernel", "host_available_parallelism"}
for row in rows:
    missing = required - row.keys()
    assert not missing, f"row {row.get('workload')}/{row.get('mode')} missing {missing}"
by_arm = {(r["workload"], r["mode"]): r for r in rows}
workloads = {w for w, _ in by_arm}
assert workloads == {"poisson", "bursty"}, f"unexpected workload grid: {workloads}"
for w in sorted(workloads):
    un = by_arm[(w, "uncoalesced")]["throughput_rps"]
    co = by_arm[(w, "coalesced")]["throughput_rps"]
    assert co >= un, f"{w}: coalesced {co:.0f} rps lost to uncoalesced {un:.0f} rps"
    print(f"ci: serving {w} coalesced {co/un:.2f}x uncoalesced "
          f"(p99 {by_arm[(w,'coalesced')]['p99_ns']/1e3:.1f} us)")
# Resilience grid: same chaos scenario as the e2e suite, three arms. The
# resilient arm must hold p99 within 2x of healthy and lose strictly fewer
# requests than the no-resilience control.
arms = {r["arm"]: r for r in report["resilience"]}
assert set(arms) == {"healthy-baseline", "resilient-faults", "control-faults"}, \
    f"unexpected resilience grid: {set(arms)}"
summary = report["resilience_summary"]
assert summary["bound_held"], \
    f"resilient p99 blew the 2x bound: {summary['p99_vs_healthy']:.2f}x healthy"
assert summary["sheds_less_than_control"], \
    f"resilient arm lost {summary['resilient_lost']} >= control {summary['control_lost']}"
print(f"ci: resilience p99 {summary['p99_vs_healthy']:.2f}x healthy (bound 2.0), "
      f"lost {summary['resilient_lost']} vs control {summary['control_lost']}")
EOF

# Calibration bench: regenerates BENCH_calib.json, the seconds per
# Levenberg-Marquardt iteration of the calibration fit at K = 10 and K = 16.
cargo bench -q --offline -p photon-bench --bench calibration >/dev/null

# Bench-report gate: every BENCH_*.json at the root (all regenerated above
# by the benches' shared JSON writer) parses and names, at top level, the
# kernel tier and host parallelism that produced its numbers.
python3 - <<'EOF'
import glob, json
paths = sorted(glob.glob("BENCH_*.json"))
assert paths, "no BENCH_*.json reports at the workspace root"
for path in paths:
    with open(path) as f:
        report = json.load(f)
    missing = {"kernel", "host_available_parallelism"} - report.keys()
    assert not missing, f"{path} lacks top-level {sorted(missing)}"
print(f"ci: {len(paths)} BENCH reports parse and carry kernel + host_available_parallelism")
EOF

# Failover chaos gate. The resilient replica-group layer must
#   (a) trip and recover circuit breakers at deterministic virtual times,
#       conserve every request, and reconcile chip queries against the
#       eval+hedge ledger (the chaos suite and the example assert all of
#       it; the example exits non-zero on any violation);
#   (b) replay byte-identically: the failover example twice, cmp'd;
#   (c) hold the headline claim on this host too: grep the example's own
#       p99-bound and sheds-less-than-control verdict lines.
PHOTON_KERNEL=scalar cargo test -q --offline --test serving_resilience
PHOTON_KERNEL=scalar cargo run --release --offline --example serving_resilience >results/serving_resilience_a.txt
PHOTON_KERNEL=scalar cargo run --release --offline --example serving_resilience >results/serving_resilience_b.txt
cmp results/serving_resilience_a.txt results/serving_resilience_b.txt
grep -q "^p99 bound: .*: yes$" results/serving_resilience_a.txt
grep -q "^resilient sheds less than control: .*: yes$" results/serving_resilience_a.txt
echo "ci: failover chaos run holds the 2x p99 bound, sheds less than control, and replays byte-identically"

# Online-recalibration gate. The in-situ loop on a drifting chip must
# (a) recover: the example exits non-zero unless >=1 canary promotion
#     fired and the online deployment beats the stale no-recal baseline
#     on both accuracy and loss;
# (b) replay bitwise: two invocations — the second resuming from the
#     first's write-ahead journal — must print byte-identical reports
#     (pinned to the scalar kernel so the gate holds on every host), and a
#     third run into a fresh directory must write the same journals, byte
#     for byte, as the first wrote into the committed results/online-recal
#     (no wall clock in them);
# (c) hold its seams: the e2e suite covers pool-size/restart bitwise
#     determinism, kill-at-any-byte promote/rollback atomicity, and the
#     probe traffic's p99 budget in the serving sim.
PHOTON_KERNEL=scalar cargo test -q --offline --test online_recal --test durable_resume
rm -rf results/online-recal
PHOTON_KERNEL=scalar cargo run --release --offline --example online_recal -- \
    --dir results/online-recal >results/online_recal_a.txt
PHOTON_KERNEL=scalar cargo run --release --offline --example online_recal -- \
    --dir results/online-recal >results/online_recal_b.txt
cmp results/online_recal_a.txt results/online_recal_b.txt
fresh_recal="$(mktemp -d)"
PHOTON_KERNEL=scalar cargo run --release --offline --example online_recal -- \
    --dir "$fresh_recal/online-recal" >/dev/null
diff -r "$fresh_recal/online-recal" results/online-recal
rm -rf "$fresh_recal"
grep -q "PROMOTED" results/online_recal_a.txt
grep -q "recovered: yes" results/online_recal_a.txt
echo "ci: online recalibration recovers, promotes, and replays byte-identically"

echo "ci: all gates green"
