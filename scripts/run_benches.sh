#!/usr/bin/env bash
# Run every bench executable and record the perf trajectory as
# BENCH_<name>.json files.
#
# Usage: scripts/run_benches.sh [BUILD_DIR] [OUT_DIR] [BENCH...]
#
#   BUILD_DIR  CMake build tree containing bench/ (default: build)
#   OUT_DIR    where BENCH_*.json and bench logs land (default: bench_results)
#   BENCH...   optional bench names to run (default: every executable)
#
# Each compiled bench gets a wrapper record with its wall time,
# exit code, and the sweep worker count (QCCD_JOBS or the core count),
# so the perf trajectory stays comparable across PRs and job settings;
# micro_models and search_convergence (google-benchmark) emit their
# native JSON reports, which downstream tooling can diff run-over-run.
# A BENCH_SUMMARY.json with every bench's wall time is written last.
set -euo pipefail

BUILD_DIR=${1:-build}
OUT_DIR=${2:-bench_results}
shift $(( $# > 2 ? 2 : $# )) || true
ONLY=("$@")

if [[ ! -d "$BUILD_DIR/bench" ]]; then
    echo "error: $BUILD_DIR/bench not found — build first:" >&2
    echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 1
fi

mkdir -p "$OUT_DIR"
OUT_DIR=$(cd "$OUT_DIR" && pwd)

# The worker count the sweep engine will resolve (see SweepEngine):
# QCCD_JOBS when set, otherwise every core.
jobs=${QCCD_JOBS:-$(nproc 2>/dev/null || echo 1)}

# GNU date gives nanoseconds; BSD date prints a literal 'N' — fall
# back to whole seconds there rather than recording garbage.
now_ns() {
    local ns
    ns=$(date +%s%N)
    if [[ $ns == *[!0-9]* ]]; then
        ns=$(($(date +%s) * 1000000000))
    fi
    echo "$ns"
}

wanted() {
    [[ ${#ONLY[@]} -eq 0 ]] && return 0
    local name
    for name in "${ONLY[@]}"; do
        [[ "$name" == "$1" ]] && return 0
    done
    return 1
}

# Benches run in a scratch cwd, which keeps stray files out of the repo.
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

failures=0
summary_rows=()
matched=()
for exe in "$BUILD_DIR"/bench/*; do
    [[ -f "$exe" && -x "$exe" ]] || continue
    name=$(basename "$exe")
    wanted "$name" || continue
    matched+=("$name")
    abs_exe=$(cd "$(dirname "$exe")" && pwd)/$name
    stamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)

    if [[ "$name" == "micro_models" || "$name" == "search_convergence" ]]; then
        echo "== $name (google-benchmark) =="
        # Write to a temp file first so a crashed run can't leave a
        # truncated JSON record behind.
        if (cd "$scratch" && "$abs_exe" --benchmark_format=json \
                > "$scratch/BENCH_${name}.json"); then
            mv "$scratch/BENCH_${name}.json" "$OUT_DIR/BENCH_${name}.json"
            echo "   wrote BENCH_${name}.json"
        else
            echo "   FAILED" >&2
            failures=$((failures + 1))
        fi
        continue
    fi

    echo "== $name =="
    start_ns=$(now_ns)
    if (cd "$scratch" && "$abs_exe" > "$OUT_DIR/${name}.log" 2>&1); then
        exit_code=0
    else
        exit_code=$?
        failures=$((failures + 1))
        echo "   FAILED (exit $exit_code), see $OUT_DIR/${name}.log" >&2
    fi
    end_ns=$(now_ns)
    wall=$(awk "BEGIN { printf \"%.3f\", ($end_ns - $start_ns) / 1e9 }")

    cat > "$OUT_DIR/BENCH_${name}.json" <<EOF
{
  "bench": "$name",
  "exit_code": $exit_code,
  "wall_seconds": $wall,
  "jobs": $jobs,
  "timestamp_utc": "$stamp"
}
EOF
    summary_rows+=("    {\"bench\": \"$name\", \"wall_seconds\": $wall, \"exit_code\": $exit_code}")
    echo "   ${wall}s -> BENCH_${name}.json"
done

# A requested bench that matched nothing is an error, not a silently
# green empty run (a renamed bench must break a caller that names it,
# not void it).
for name in "${ONLY[@]+"${ONLY[@]}"}"; do
    found=0
    for ran in "${matched[@]+"${matched[@]}"}"; do
        [[ "$ran" == "$name" ]] && found=1
    done
    if [[ $found -eq 0 ]]; then
        echo "error: requested bench '$name' not found in $BUILD_DIR/bench" >&2
        failures=$((failures + 1))
    fi
done

# Per-point toolflow latency (microseconds): the BM_ToolflowPoint
# real_time from the micro_models google-benchmark report, i.e. one
# shared-context design-point evaluation including the two-pass runtime
# decomposition. "null" when micro_models was not built or not run.
toolflow_point_us=null
if [[ -f "$OUT_DIR/BENCH_micro_models.json" ]]; then
    extracted=$(awk '
        /"name": "BM_ToolflowPoint"/ { found = 1 }
        found && /"time_unit"/ {
            gsub(/[",]/, ""); unit = $2
        }
        found && /"real_time"/ {
            gsub(/,/, ""); rt = $2
        }
        found && rt != "" && unit != "" {
            scale = 1
            if (unit == "ms") scale = 1000
            else if (unit == "s") scale = 1000000
            else if (unit == "ns") scale = 0.001
            printf "%.3f", rt * scale
            exit
        }' "$OUT_DIR/BENCH_micro_models.json")
    [[ -n "$extracted" ]] && toolflow_point_us=$extracted
fi

# Staged-evaluation delta counters from BM_SweepDelta: points evaluated
# vs. full schedules actually run on a model-knob-heavy sweep shape
# (the >= 2x fewer-full-schedules acceptance metric). "null" when
# micro_models was not built or not run.
sweep_delta_points=null
sweep_delta_full_schedules=null
sweep_delta_replays=null
if [[ -f "$OUT_DIR/BENCH_micro_models.json" ]]; then
    extract_counter() {
        awk -v key="\"$1\"" '
            /"name": "BM_SweepDelta"/ { found = 1 }
            found && $1 == key ":" {
                gsub(/,/, ""); printf "%.0f", $2; exit
            }' "$OUT_DIR/BENCH_micro_models.json"
    }
    for counter in points full_schedules replays; do
        extracted=$(extract_counter "$counter")
        [[ -n "$extracted" ]] && eval "sweep_delta_$counter=$extracted"
    done
fi

# Surrogate-search economics from BM_SearchConvergence: points really
# evaluated vs. the exhaustive space, the surrogate/simulator Spearman
# rank correlation, and whether the search found the exhaustive
# optimum. "null" when search_convergence was not built or not run.
search_points_evaluated=null
search_exhaustive_points=null
search_rank_correlation=null
search_found_optimum=null
if [[ -f "$OUT_DIR/BENCH_search_convergence.json" ]]; then
    extract_search_counter() {
        awk -v key="\"$1\"" -v fmt="$2" '
            /"name": "BM_SearchConvergence"/ { found = 1 }
            found && $1 == key ":" {
                gsub(/,/, ""); printf fmt, $2; exit
            }' "$OUT_DIR/BENCH_search_convergence.json"
    }
    for counter in points_evaluated exhaustive_points found_optimum; do
        extracted=$(extract_search_counter "search_$counter" "%.0f")
        [[ -n "$extracted" ]] && eval "search_$counter=$extracted"
    done
    extracted=$(extract_search_counter "search_rank_correlation" "%.4f")
    [[ -n "$extracted" ]] && search_rank_correlation=$extracted
fi

# One aggregate record so the per-bench wall-time trajectory can be
# diffed across PRs without opening every BENCH_*.json.
{
    echo "{"
    echo "  \"jobs\": $jobs,"
    echo "  \"toolflow_point_us\": $toolflow_point_us,"
    echo "  \"sweep_delta_points\": $sweep_delta_points,"
    echo "  \"sweep_delta_full_schedules\": $sweep_delta_full_schedules,"
    echo "  \"sweep_delta_replays\": $sweep_delta_replays,"
    echo "  \"search_points_evaluated\": $search_points_evaluated,"
    echo "  \"search_exhaustive_points\": $search_exhaustive_points,"
    echo "  \"search_rank_correlation\": $search_rank_correlation,"
    echo "  \"search_found_optimum\": $search_found_optimum,"
    echo "  \"timestamp_utc\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
    echo "  \"benches\": ["
    sep=""
    for row in "${summary_rows[@]+"${summary_rows[@]}"}"; do
        printf '%s%s' "$sep" "$row"
        sep=$',\n'
    done
    echo
    echo "  ]"
    echo "}"
} > "$OUT_DIR/BENCH_SUMMARY.json"

echo
echo "results in $OUT_DIR:"
ls "$OUT_DIR"/BENCH_*.json 2>/dev/null || true

exit "$failures"
