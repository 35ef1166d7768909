#!/usr/bin/env bash
# Chaos gate: prove kill -9 resilience of the durable training runtime.
#
# For worker pools 1 and 3:
#   1. run the durable-training example uninterrupted (control journal),
#   2. run it again throttled, SIGKILL it at a seeded-pseudo-random delay,
#   3. resume from the (possibly torn) journal,
#   4. require the resumed run's journal to be BYTE-identical to the
#      control's (`cmp`). Journals hold no wall-clock time, so this checks
#      every epoch's state and record, the final parameters included.
#
# Usage: scripts/chaos_resume.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${1:-7}"
BIN=target/release/examples/durable_training
cargo build --release --offline --example durable_training

for THREADS in 1 3; do
    out="results/chaos-t${THREADS}"
    rm -rf "$out"
    mkdir -p "$out"

    "$BIN" --journal "$out/control.journal" \
        --threads "$THREADS" --seed "$SEED" >/dev/null

    # Throttled run: ~300 ms per epoch keeps the process alive long enough
    # for the kill to land mid-run (wherever the seeded delay falls).
    "$BIN" --journal "$out/chaos.journal" \
        --threads "$THREADS" --seed "$SEED" --flush-delay-ms 300 >/dev/null &
    pid=$!
    delay_ms=$(( (SEED * 7919 + THREADS * 104729) % 1200 + 300 ))
    sleep "$(awk "BEGIN{print $delay_ms/1000}")"
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true

    if [ -f "$out/chaos.journal" ]; then
        "$BIN" --journal "$out/chaos.journal" \
            --threads "$THREADS" --seed "$SEED" --resume >/dev/null
    else
        # Killed before the journal was even created: a fresh start IS the
        # resume semantics for zero durable progress.
        "$BIN" --journal "$out/chaos.journal" \
            --threads "$THREADS" --seed "$SEED" >/dev/null
    fi

    cmp "$out/control.journal" "$out/chaos.journal"
    echo "chaos gate: threads=$THREADS killed at ${delay_ms}ms, resumed journal bitwise-identical"
done
