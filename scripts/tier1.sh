#!/usr/bin/env bash
# Tier-1 gate: release build, the full test suite, and every figure
# harness in quick mode with its shape checks enforced.
#
# `--jobs 2` keeps the harness runs deterministic-by-construction while
# exercising the parallel path (output is byte-identical at any job
# count; see EXPERIMENTS.md "Running the figures").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build =="
cargo build --release --workspace

echo "== tidy (determinism / robustness / hygiene audit) =="
# Emit the findings artifact alongside the other bench artifacts.
# Exit 1 = findings, 2 = error.
cargo run -q -p xtask -- tidy --format json --out target/tidy-findings.json

echo "== lint =="
cargo clippy --workspace --all-targets -q -- -D warnings

echo "== tests =="
cargo test -q --workspace

echo "== figure harnesses (quick, checked, 2 jobs) =="
bins=(fig1 fig2 fig4 fig7 fig8 fig9 fig10 fig11 fig12 fig13
      ablation_threshold ablation_selection ablation_unmap)
for bin in "${bins[@]}"; do
    echo "-- $bin"
    cargo run --release -q -p bench --bin "$bin" -- --quick --check --jobs 2 \
        >/dev/null
done

echo "== perf smoke (checkpoint model, quick, checked) =="
# Quick mode: a 1/16th-size warm platform; --check asserts the delta
# checkpoint is much smaller than the base and that the base+delta
# chain restores the canonical bytes. Full measurements come from
# scripts/bench.sh.
cargo run --release -q -p bench --bin perf -- --quick --check \
    --out-dir target/bench-smoke >/dev/null

echo "== benchmark (own tests: all five workloads vs their digest oracles) =="
# The benchmark is a package of its own, outside the workspace, so
# `cargo test --workspace` never reaches it. Its smoke test runs every
# BENCHMARK.json workload against its control digest, so a change that
# moves any simulated outcome fails here.
cargo test -q --manifest-path crates/bench/benchmark/Cargo.toml

echo "== cluster smoke (sharded replay, digests across job counts) =="
# Small trace over 8 shards: the digest must be byte-identical at
# --jobs 1/2/4, and a run with one shard killed and recovered
# mid-replay must digest identical to the uninterrupted control. The
# scaling floor (1.5x at 4 jobs) is enforced only on hosts with >= 4
# cores; the harness waives it (and records host_cores) elsewhere.
cluster_out=$(cargo run --release -q -p bench --bin cluster_replay -- \
    --quick --check --out-dir target/bench-smoke)
grep -q "conservation OK" <<<"$cluster_out" \
    || { echo "cluster smoke never printed its conservation line"; exit 1; }

echo "== cluster digest vs the committed BENCH_cluster.json (full size) =="
# The full-size digest does not depend on the host, so the committed
# artifact must carry exactly the digest this code prints; a mismatch
# means a simulated outcome moved or the artifact is stale. (No
# --check: the full-size scaling floor is a timing gate.)
full_out=$(cargo run --release -q -p bench --bin cluster_replay -- \
    --out-dir target/bench-smoke)
want=$(sed -n 's/^ *"digest": "\(0x[0-9a-f]*\)",*$/\1/p' BENCH_cluster.json)
got=$(grep -o 'digest 0x[0-9a-f]*' <<<"$full_out" | cut -d' ' -f2 | sort -u)
if [ -z "$want" ] || [ "$got" != "$want" ]; then
    echo "cluster_replay printed digest(s) '${got//$'\n'/ }', BENCH_cluster.json has '$want'"
    exit 1
fi

echo "== fleet failure domains (outage / partition / availability SLO) =="
# Shard 5 goes dark for three rounds mid-replay. Down: the shard
# freezes and must heal from its durable checkpoint store, digest
# byte-identical across --jobs 1/2/4 and vs a kill+outage run; hedged
# retries must hold the availability SLO while a retry-less control
# visibly loses requests, and a planned window must drain the warm set
# first. Partitioned: same window as a reachability-only fault — the
# shard keeps executing and nothing heals through the store. Every
# replay must print its request-conservation accounting line, and no
# shard's checkpoint store may ever hold more than 2 x base_every + 1
# objects (a deterministic count; storage writes are fault-free here).
# Full size, not --quick: every check is deterministic with no timing
# gate, and only the full trace cuts enough checkpoints for the store
# bound to tell a retaining store from an append-only one on both
# gates.
for gate in --outage --partition; do
    echo "-- cluster_replay $gate"
    gate_out=$(cargo run --release -q -p bench --bin cluster_replay -- \
        --check "$gate" --out-dir "target/bench-smoke/${gate#--}")
    runs=$(grep -c "conservation OK" <<<"$gate_out" || true)
    if [ "$runs" -lt 4 ]; then
        echo "failure-domain gate $gate printed $runs conservation lines (want >= 4):"
        echo "$gate_out"
        exit 1
    fi
done
# The outage gate's artifact is fully simulated, so the committed copy
# must match the regenerated one byte for byte.
if ! cmp -s BENCH_availability.json target/bench-smoke/outage/BENCH_availability.json; then
    echo "cluster_replay --outage wrote a BENCH_availability.json that differs from the committed one:"
    diff BENCH_availability.json target/bench-smoke/outage/BENCH_availability.json || true
    exit 1
fi

echo "== chaos (fault-free + seeded fault schedules) =="
# Default sweep: fault-free baselines plus seeds 11/23/47 at a 1 %
# fault rate, with termination/accounting/determinism checks on.
cargo run --release -q -p bench --bin chaos -- --quick --check >/dev/null
# A harsher schedule: different seed, 5 % rate.
cargo run --release -q -p bench --bin chaos -- --quick --check \
    --fault-seed 99 --fault-rate 0.05 >/dev/null

echo "== kill-recover (crash-consistent checkpoint/restore) =="
# Kill the event loop every 400 events, restore the latest checkpoint,
# replay the request journal, and demand the recovered run's final
# state digest byte-identical to an uninterrupted control.
cargo run --release -q -p bench --bin chaos -- --quick --check \
    --fault-seed 11 --crash-every 400 >/dev/null

echo "== kill-recover under storage faults (torn writes, bit rot) =="
# Same gate, but the checkpoint store itself misbehaves. Torn-write
# schedule: half the checkpoint puts lose their tail at a frame
# boundary; recovery must fall back to older checkpoints (or the
# journal alone) and still digest identical to the control.
cargo run --release -q -p bench --bin chaos -- --quick --check \
    --fault-seed 11 --crash-every 400 --torn-write >/dev/null
# Bit-rot schedule: every checkpoint written gets one bit flipped at a
# fixed offset, so no stored checkpoint ever verifies — recovery is a
# from-scratch journal replay, and the digest must still match.
cargo run --release -q -p bench --bin chaos -- --quick --check \
    --fault-seed 11 --crash-at 500 --corrupt-at 64 >/dev/null

echo "tier1 OK"
