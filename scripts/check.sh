#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merging.
#
# Uses --locked throughout: the committed Cargo.lock pins the vendored shim
# versions and the build must work with no registry access (see
# shims/README.md). Run from the repo root.
#
# Each gate is timed; a per-gate elapsed-time summary prints at the end
# (and on failure, for the gates that ran), so slow gates are visible
# instead of anecdotal.

set -euo pipefail
cd "$(dirname "$0")/.."

GATE_NAMES=()
GATE_SECS=()

summary() {
    echo
    echo "== per-gate elapsed time =="
    local i total=0
    for i in "${!GATE_NAMES[@]}"; do
        printf '%8ss  %s\n' "${GATE_SECS[$i]}" "${GATE_NAMES[$i]}"
        total=$((total + GATE_SECS[i]))
    done
    printf '%8ss  total\n' "$total"
}
trap summary EXIT

gate() {
    local name="$1"
    shift
    echo "== $name =="
    local t0=$SECONDS
    "$@"
    GATE_NAMES+=("$name")
    GATE_SECS+=("$((SECONDS - t0))")
}

gate "build (release, locked)" \
    cargo build --workspace --release --locked

gate "tests" \
    cargo test --workspace --locked --quiet

gate "clippy (deny warnings)" \
    cargo clippy --workspace --all-targets --locked -- -D warnings

gate "chaos smoke (fixed-seed fault matrix incl. fleet-barrier crash)" \
    cargo run --release --locked -p bionicdb-bench --bin chaos -- --smoke

gate "goldencheck --group fleet (2-chip fleet vs in-process: byte-identical reports)" \
    cargo run --release --locked -p bionicdb-bench --bin goldencheck -- --group fleet

gate "goldencheck --group stats (fixed-seed YCSB: determinism, schema, trace inertness)" \
    cargo run --release --locked -p bionicdb-bench --bin goldencheck -- --group stats --json target/stats_smoke.json

gate "parcheck (serial vs global/matrix lookahead at 1/2/4 sim threads: byte-identical reports)" \
    cargo run --release --locked -p bionicdb-bench --bin simperf -- --par --quick --out target/parsim_smoke.json

gate "goldencheck --group workload (driver bit-identity vs pre-refactor goldens + SmallBank ABI smoke)" \
    cargo run --release --locked -p bionicdb-bench --bin goldencheck -- --group workload

gate "goldencheck --group serve (Silo + hardware serving engines vs committed goldens, byte-for-byte)" \
    cargo run --release --locked -p bionicdb-bench --bin goldencheck -- --group serve

gate "goldencheck --group batch (batch mode-off bit-inertness + end-to-end smoke + quick-sweep golden)" \
    cargo run --release --locked -p bionicdb-bench --bin goldencheck -- --group batch

gate "saturate (graceful-degradation claim: controlled >= 85% of peak at 2x, baseline < 50%)" \
    cargo run --release --locked -p bionicdb-bench --bin saturate -- --quick --json BENCH_serve.json

gate "saturate --engine hw (open-loop serving on the cycle-accurate machine: graceful degradation + batched admission beats unbatched on chained-hash ycsb_c)" \
    cargo run --release --locked -p bionicdb-bench --bin saturate -- --quick --engine hw --json BENCH_serve_hw.json

gate "parsim full study (append results/bench_history.jsonl)" \
    cargo run --release --locked -p bionicdb-bench --bin simperf -- --par --out BENCH_parsim.json

gate "batchsweep full study (2x-at-width-8 assertion, append history)" \
    cargo run --release --locked -p bionicdb-bench --bin batchsweep -- --out BENCH_batch.json

gate "benchdiff (gate vs recorded baseline)" \
    cargo run --release --locked -p bionicdb-bench --bin benchdiff

gate "dashboard (static HTML from the bench history)" \
    cargo run --release --locked -p bionicdb-bench --bin dashboard

echo
echo "All checks passed."
