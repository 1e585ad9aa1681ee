#!/usr/bin/env bash
# A/B benchmark pairs: a committed parent revision against this tree.
#
#   scripts/ab.sh PARENT_REV WORKLOAD [PAIRS] [SEED]
#
# Extracts PARENT_REV with `git archive` into target/ab/parent (kept
# across calls for the same commit, so its build stays warm), builds
# the benchmark package (crates/bench/benchmark) there and in this
# tree, and runs PAIRS pairs (default 10) of one BENCHMARK.json
# workload at SEED (default 11), each run as long as BENCHMARK.json's
# run_seconds. The side that runs first alternates from pair to pair,
# so host drift hits both sides alike.
#
# Prints, per end-to-end metric, each side's median and p25/p75 over
# the pairs, the change's median relative to the parent's, and the
# number of pairs in which the change read lower. Then each side's
# attempted and failed simulated requests summed over the pairs; if
# the change fails a larger share than the parent, it says so and
# exits 1, since a metric won that way is no gain. The raw rows go to
# target/ab/WORKLOAD-sSEED.tsv. Needs bash, git, cargo and awk only.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/ab.sh PARENT_REV WORKLOAD [PAIRS] [SEED]"
rev=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
seed=${4:-11}
manifest=crates/bench/benchmark/Cargo.toml
bin=crates/bench/benchmark/target/release/benchmark

commit=$(git rev-parse --verify "$rev^{commit}")
parent=target/ab/parent
if [ "$(cat "$parent/.ab-commit" 2>/dev/null)" != "$commit" ]; then
    rm -rf "$parent"
    mkdir -p "$parent"
    git archive "$commit" | tar -x -C "$parent"
    echo "$commit" >"$parent/.ab-commit"
fi

echo "== build: parent ${commit:0:10} and this tree ==" >&2
cargo build --release -q --manifest-path "$parent/$manifest"
cargo build --release -q --manifest-path "$manifest"

# One run; prints `name value` for the attempted and failed counts and
# for each metric in the result line (the last line of stdout).
run() {
    "$1/$bin" --workload "$workload" --seed "$seed" --trace 0 \
        | tail -n 1 \
        | awk '{
            for (c = 1; c <= 2; c++) {
                name = c == 1 ? "attempted" : "failed"
                if (match($0, "\"" name "\": [0-9]+")) {
                    v = substr($0, RSTART, RLENGTH); sub(/.*: /, "", v)
                    print name, v
                }
            }
            while (match($0, /"[a-z_]+": \{"value": [-0-9.e+]+/)) {
                split(substr($0, RSTART, RLENGTH), f, "\"")
                v = substr($0, RSTART, RLENGTH); sub(/.*"value": /, "", v)
                print f[2], v
                $0 = substr($0, RSTART + RLENGTH)
            }
        }'
}

rows=target/ab/$workload-s$seed.tsv
: >"$rows"
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        dir=.
        [ "$side" = parent ] && dir=$parent
        run "$dir" | while read -r metric value; do
            printf '%s\t%s\t%s\t%s\n' "$i" "$side" "$metric" "$value" >>"$rows"
        done
    done
    echo "pair $i/$pairs done" >&2
done

# BENCHMARK.json's end-to-end metrics, all lower-is-better; keep this
# list in step with its `end_to_end` entries.
awk -v pairs="$pairs" -v e2e="wall_s setup_s peak_rss_mb" '
    BEGIN { nm = split(e2e, metrics, " ") }
    {
        key = $3 SUBSEP $2
        n[key]++; val[key, n[key]] = $4; by_pair[$3, $2, $1] = $4; sum[key] += $4
    }
    function q(key, p,    m, i, j, t, h, lo) {
        m = n[key]
        for (i = 1; i <= m; i++) s[i] = val[key, i]
        for (i = 2; i <= m; i++) { t = s[i]; for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]; s[j + 1] = t }
        h = (m - 1) * p + 1; lo = int(h)
        return lo >= m ? s[m] : s[lo] + (h - lo) * (s[lo + 1] - s[lo])
    }
    END {
        printf "%-12s %-7s %12s %12s %12s\n", "metric", "side", "p25", "median", "p75"
        for (k = 1; k <= nm; k++) {
            metric = metrics[k]
            if (!n[metric, "parent"] || !n[metric, "change"]) {
                printf "%-12s missing from the result lines\n", metric
                continue
            }
            for (side = 0; side < 2; side++) {
                name = side ? "change" : "parent"
                key = metric SUBSEP name
                med[name] = q(key, 0.5)
                printf "%-12s %-7s %12.6g %12.6g %12.6g\n", metric, name, q(key, 0.25), med[name], q(key, 0.75)
            }
            won = 0
            for (i = 1; i <= pairs; i++)
                if (by_pair[metric, "change", i] < by_pair[metric, "parent", i]) won++
            rel = med["parent"] ? 100 * (med["change"] / med["parent"] - 1) : 0
            printf "%-12s change median %+.1f %%, lower in %d of %d pairs\n", metric, rel, won, pairs
        }
        for (side = 0; side < 2; side++) {
            name = side ? "change" : "parent"
            a[name] = sum["attempted", name]; f[name] = sum["failed", name]
            share[name] = a[name] ? f[name] / a[name] : 1
            printf "%-7s attempted %d, failed %d\n", name, a[name], f[name]
        }
        if (share["change"] > share["parent"]) {
            printf "change fails a larger share of requests than the parent (%.6g > %.6g): its metric wins do not count\n", share["change"], share["parent"]
            exit 1
        }
    }
' "$rows"
