#!/usr/bin/env bash
# Perf trajectory: regenerate the committed BENCH_*.json files at the
# repo root.
#
# Runs the `perf` harness (checkpoint model) in full mode and the
# `cluster_replay` harness, and writes:
#
#   BENCH_checkpoint.json — full vs. delta checkpoint bytes and wall
#                           time at a ~2^16-frozen-instance steady
#                           state
#   BENCH_cluster.json    — sharded replay at 1/2/4 worker threads:
#                           wall time, speedup vs. the serial run, and
#                           the kill-recover digest oracle (written by
#                           the separate `cluster_replay` harness)
#   BENCH_availability.json — the fleet failure-domain run: success
#                           rate and latency percentiles fault-free
#                           vs. a three-round shard outage, hedged
#                           and bare, plus heal/drain accounting
#                           (cluster_replay --outage)
#
# Numbers are host-dependent: run on an idle machine and commit the
# refreshed files together with the change that moved them, so the
# repo history doubles as the perf trajectory. `scripts/tier1.sh`
# runs the same harness in `--quick --check` mode as a smoke gate;
# this script is the measurement run. Replay and event-loop speed are
# measured end to end by the repository benchmark instead
# (BENCHMARK.json; see crates/bench/benchmark/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p bench --bin perf --bin cluster_replay
./target/release/perf --out-dir . "$@"
./target/release/cluster_replay --out-dir . "$@"
./target/release/cluster_replay --outage --out-dir . "$@"
echo "bench OK — review and commit BENCH_*.json"
