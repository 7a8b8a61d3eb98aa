#!/usr/bin/env bash
# Verify the figure/ablation pipelines still produce bit-identical
# metrics to the committed golden CSVs (golden/): every declarative
# sweep spec (qccd_explore --sweep examples/sweeps/<spec>.sweep writes
# <spec name>.csv) must reproduce its golden byte for byte,
# plus sharded spec runs whose concatenated outputs must reproduce the
# unsharded files byte-for-byte, a cold+warm result-cache pass over
# the sensitivity sweep (the staged toolflow's replay-heavy best case),
# a warm pass over the committed cache-schema-1 store
# (golden/schema1.qcache, written by an earlier build), the exact
# staged: counts of every spec at one worker and of two model-knob
# specs at four,
# the full primitive stream (--trace dump and .isa file) of two
# single-point runs against golden/*.trace and golden/*.isa,
# and the --recommend report for bv (golden/recommend_bv.txt) at one
# worker and at four.
# Any diff means a change altered the
# simulator's arithmetic or the export format — intended metric changes
# must regenerate the golden files in the same commit. Every golden CSV
# must be produced by some spec, and every spec's CSV must have a
# golden.
#
# Usage: scripts/check_golden.sh [BUILD_DIR]
#
#   BUILD_DIR  CMake build tree containing src/qccd_explore
#              (default: build)
#
# The sweep engine's results are worker-count independent, so this
# check passes for any QCCD_JOBS setting.
set -euo pipefail

BUILD_DIR=${1:-build}
REPO_DIR=$(cd "$(dirname "$0")/.." && pwd)
GOLDEN_DIR="$REPO_DIR/golden"
SWEEP_DIR="$REPO_DIR/examples/sweeps"

if [[ ! -x "$BUILD_DIR/src/qccd_explore" ]]; then
    echo "error: $BUILD_DIR/src/qccd_explore not found — build first:" >&2
    echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 1
fi
EXPLORE=$(cd "$BUILD_DIR/src" && pwd)/qccd_explore

# Goldens certify RELEASE output. The checked-contract layer must be
# compiled out of any binary whose bytes we compare — a checked build
# passing here would prove nothing about the shipping configuration
# (and a contract throw would masquerade as a metrics diff).
if "$EXPLORE" --build-info | grep -q 'checked-contracts=on'; then
    echo "error: $BUILD_DIR was configured with -DQCCD_CHECKED=ON;" >&2
    echo "  goldens must be validated against a release build" >&2
    exit 1
fi

# Goldens certify UNFUSED arithmetic: a compiler that contracts a*b+c
# into an FMA changes the last bits of the fidelity and heating sums.
# The binary measures this itself, so only an explicit "off" passes.
if ! "$EXPLORE" --build-info | grep -qx 'fp-contract=off'; then
    echo "error: $EXPLORE does not report fp-contract=off;" >&2
    echo "  goldens certify builds that never fuse a*b+c (see" >&2
    echo "  -ffp-contract=off in CMakeLists.txt)" >&2
    exit 1
fi

# Goldens also certify COLD output: a cache-hit run proves only that
# the store replays what some earlier build computed, not that this
# build computes it. The binary must advertise its cache schema (so a
# layout change is visible here), and no committed spec may smuggle a
# "cache" option into the golden runs below.
if ! "$EXPLORE" --build-info | grep -q 'cache-schema='; then
    echo "error: $EXPLORE --build-info does not report cache-schema" >&2
    exit 1
fi
if grep -l '"cache"' "$SWEEP_DIR"/*.sweep 2> /dev/null; then
    echo "error: committed sweep specs must not enable the result" >&2
    echo "  cache — golden runs certify cold computation" >&2
    exit 1
fi

shopt -s nullglob
golden_files=("$GOLDEN_DIR"/*.csv)
if [[ ${#golden_files[@]} -eq 0 ]]; then
    echo "error: no golden CSVs found in $GOLDEN_DIR" >&2
    exit 1
fi

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

failures=0
covered=""

# --- Declarative sweep specs ----------------------------------------
mkdir -p "$scratch/spec"
for sweep in "$SWEEP_DIR"/*.sweep; do
    spec=$(basename "$sweep")
    echo "== sweep $spec =="
    if ! (cd "$scratch/spec" && "$EXPLORE" --sweep "$sweep" \
            > "$spec.log" 2>&1); then
        echo "   FAILED to run (see $scratch/spec/$spec.log)" >&2
        failures=$((failures + 1))
    fi
done
# Belt and braces for the cold-run rule: no spec run may have consulted
# a result store (the CLI prints a "cache:" stats line whenever one is
# open, so a hit-tainted golden run cannot pass silently).
if grep -l '^cache:' "$scratch/spec"/*.log 2> /dev/null; then
    echo "   GOLDEN spec run consulted a result cache" >&2
    failures=$((failures + 1))
fi
for spec_csv in "$scratch/spec"/*.csv; do
    name=$(basename "$spec_csv" .csv)
    if [[ ! -f "$GOLDEN_DIR/$name.csv" ]]; then
        echo "== $name.csv (spec output) ==" >&2
        echo "   NO golden/$name.csv — commit one" >&2
        failures=$((failures + 1))
        continue
    fi
    if diff -u "$GOLDEN_DIR/$name.csv" "$spec_csv" \
            > "$scratch/spec/$name.diff"; then
        echo "   spec-driven $name.csv matches golden"
        covered="$covered $name"
    else
        echo "   SPEC-DRIVEN $name.csv DIFFERS from golden:" >&2
        head -20 "$scratch/spec/$name.diff" >&2
        failures=$((failures + 1))
    fi
done

# --- Sharded spec run: concatenation must be byte-identical ---------
echo "== sweep fig6.sweep, shards 0/2 + 1/2 =="
mkdir -p "$scratch/shard"
if (cd "$scratch/shard" &&
        "$EXPLORE" --sweep "$SWEEP_DIR/fig6.sweep" --shard 0/2 \
            --out s0.csv > s0.log 2>&1 &&
        "$EXPLORE" --sweep "$SWEEP_DIR/fig6.sweep" --shard 1/2 \
            --out s1.csv > s1.log 2>&1 &&
        cat s0.csv s1.csv > union.csv &&
        cmp -s union.csv "$GOLDEN_DIR/fig6_trap_sizing.csv"); then
    echo "   shard union matches golden"
else
    echo "   SHARD UNION DIFFERS from golden/fig6_trap_sizing.csv" >&2
    failures=$((failures + 1))
fi

# --- Sharded run over the new topology families ---------------------
echo "== sweep topology_families.sweep, shards 0..2/3 =="
mkdir -p "$scratch/shard_topo"
if (cd "$scratch/shard_topo" &&
        "$EXPLORE" --sweep "$SWEEP_DIR/topology_families.sweep" \
            --shard 0/3 --out t0.csv > t0.log 2>&1 &&
        "$EXPLORE" --sweep "$SWEEP_DIR/topology_families.sweep" \
            --shard 1/3 --out t1.csv > t1.log 2>&1 &&
        "$EXPLORE" --sweep "$SWEEP_DIR/topology_families.sweep" \
            --shard 2/3 --out t2.csv > t2.log 2>&1 &&
        cat t0.csv t1.csv t2.csv > union.csv &&
        cmp -s union.csv "$GOLDEN_DIR/topology_families.csv"); then
    echo "   shard union matches golden"
else
    echo "   SHARD UNION DIFFERS from golden/topology_families.csv" >&2
    failures=$((failures + 1))
fi

# --- Warm-cache run through the staged path -------------------------
# The model-knob-only sensitivity sweep is the staged toolflow's best
# case (one schedule per gate/app group, every other point replayed)
# AND the result store's: cold with --cache, then warm from the same
# store, must both be byte-identical to the golden. This certifies
# replayed rows round-trip through the .qcache format unchanged.
echo "== sweep sensitivity_fidelity.sweep, cold + warm cache =="
mkdir -p "$scratch/warm"
if (cd "$scratch/warm" &&
        "$EXPLORE" --sweep "$SWEEP_DIR/sensitivity_fidelity.sweep" \
            --out cold.csv --cache warm.qcache > cold.log 2>&1 &&
        "$EXPLORE" --sweep "$SWEEP_DIR/sensitivity_fidelity.sweep" \
            --out warm.csv --cache warm.qcache > warm.log 2>&1 &&
        cmp -s cold.csv "$GOLDEN_DIR/sensitivity_fidelity.csv" &&
        cmp -s warm.csv "$GOLDEN_DIR/sensitivity_fidelity.csv" &&
        grep -q '^staged: ' cold.log &&
        grep -q 'hits=20' warm.log); then
    echo "   cold and warm cache runs match golden"
else
    echo "   WARM-CACHE RUN DIFFERS from golden/sensitivity_fidelity.csv" >&2
    failures=$((failures + 1))
fi

# --- Staged counts at one and four workers --------------------------
# A schedule-key group is cut into at most max(1, workers / groups)
# spans and no model replay crosses a span boundary, so the staged:
# line is a function of the spec and --jobs alone: every one of five
# four-worker runs must print the same counts, and one worker the
# same counts as ever. Each run's CSV must still match its golden.
# The one-worker pins cover every spec: a knob wrongly left out of the
# schedule key shows as a replay, one wrongly put in as a lost one.
echo "== staged counts, --jobs 1 once per spec and --jobs 4 five times =="
mkdir -p "$scratch/staged"
check_staged() {
    local spec=$1 golden=$2 jobs=$3 runs=$4 want=$5
    local r
    for ((r = 1; r <= runs; r++)); do
        if ! (cd "$scratch/staged" &&
                "$EXPLORE" --sweep "$SWEEP_DIR/$spec.sweep" \
                    --jobs "$jobs" --out "$spec.$jobs.$r.csv" \
                    > "$spec.$jobs.$r.log" 2>&1 &&
                grep -qx "staged: $want" "$spec.$jobs.$r.log" &&
                cmp -s "$spec.$jobs.$r.csv" "$GOLDEN_DIR/$golden.csv"); then
            echo "   $spec.sweep --jobs $jobs run $r did NOT print" \
                "'staged: $want' or DIFFERS from golden" \
                "(see $scratch/staged/$spec.$jobs.$r.log)" >&2
            failures=$((failures + 1))
            return
        fi
    done
    echo "   $spec.sweep --jobs $jobs: $runs run(s) print 'staged: $want'"
}
check_staged ablation_buffer ablation_buffer 1 1 "15 full, 0 replayed"
check_staged ablation_cooling ablation_cooling 1 1 "3 full, 12 replayed"
check_staged ablation_heating ablation_heating 1 1 "2 full, 8 replayed"
check_staged custom_devices custom_devices 1 1 "8 full, 0 replayed"
check_staged fig6 fig6_trap_sizing 1 1 "36 full, 0 replayed"
check_staged fig7 fig7_topology 1 1 "72 full, 0 replayed"
check_staged fig8 fig8_microarch 1 1 "288 full, 0 replayed"
check_staged mixed_apps mixed_apps 1 1 "24 full, 0 replayed"
check_staged sensitivity_fidelity sensitivity_fidelity 1 1 \
    "4 full, 16 replayed"
check_staged topology_families topology_families 1 1 "24 full, 0 replayed"
check_staged sensitivity_fidelity sensitivity_fidelity 4 5 \
    "4 full, 16 replayed"
check_staged ablation_heating ablation_heating 4 5 "4 full, 6 replayed"

# --- Cache-schema-1 keys across builds ------------------------------
# golden/schema1.qcache was filled cold by an earlier build over three
# specs (no topo: grids: their keys embed the file's resolved path).
# This build must find every point in a copy of it, insert nothing,
# emit golden rows and leave the copy's bytes unchanged; a key change
# would otherwise show only as users' caches silently going cold. Its
# own directory keeps its cache: lines out of the cold-run grep above.
echo "== schema-1 store fixture, every point warm =="
mkdir -p "$scratch/schema1"
cp "$GOLDEN_DIR/schema1.qcache" "$scratch/schema1/fixture.qcache"
for pair in fig6:fig6_trap_sizing mixed_apps:mixed_apps \
        sensitivity_fidelity:sensitivity_fidelity; do
    spec=${pair%%:*}
    name=${pair##*:}
    if (cd "$scratch/schema1" &&
            "$EXPLORE" --sweep "$SWEEP_DIR/$spec.sweep" --out "$name.csv" \
                --cache fixture.qcache > "$spec.log" 2>&1 &&
            grep -q ' misses=0 inserts=0 ' "$spec.log" &&
            cmp -s "$name.csv" "$GOLDEN_DIR/$name.csv"); then
        echo "   $spec.sweep hits the fixture and matches golden"
    else
        echo "   $spec.sweep MISSED the schema-1 fixture or DIFFERS" \
            "(see $scratch/schema1/$spec.log)" >&2
        failures=$((failures + 1))
    fi
done
if ! cmp -s "$scratch/schema1/fixture.qcache" \
        "$GOLDEN_DIR/schema1.qcache"; then
    echo "   the warm runs CHANGED the schema-1 fixture's bytes" >&2
    failures=$((failures + 1))
fi

# --- Primitive stream: full --trace dumps and .isa executables ------
# The CSVs pin aggregate metrics only. These pin every scheduled
# primitive (order, timing, operands) of one IS run and of one GS run
# that evicts, in both the human trace dump and the executable format.
mkdir -p "$scratch/stream"
check_stream() {
    local name=$1
    shift
    echo "== primitive stream $name =="
    if ! (cd "$scratch/stream" &&
            "$EXPLORE" "$@" --trace 1000000 > "$name.trace" \
                2> "$name.err" &&
            "$EXPLORE" "$@" --emit-isa "$name.isa" > /dev/null \
                2>> "$name.err"); then
        echo "   FAILED to run (see $scratch/stream/$name.err)" >&2
        failures=$((failures + 1))
        return
    fi
    local ext
    for ext in trace isa; do
        if diff -u "$GOLDEN_DIR/$name.$ext" "$scratch/stream/$name.$ext" \
                > "$scratch/stream/$name.$ext.diff"; then
            echo "   $name.$ext matches golden"
        else
            echo "   $name.$ext DIFFERS from golden:" >&2
            head -20 "$scratch/stream/$name.$ext.diff" >&2
            failures=$((failures + 1))
        fi
    done
}
check_stream bv_linear6_c14_fm_is --app bv --topology linear:6 \
    --capacity 14 --gate FM --reorder IS
check_stream bv_linear6_c14_fm_gs_b0 --app bv --topology linear:6 \
    --capacity 14 --gate FM --reorder GS --buffer 0

# --- Recommendation report at one and four workers ------------------
# The candidate search, its counters and the ranking table are a pure
# function of the application: a four-worker run must print the same
# report apart from its worker count.
echo "== --recommend bv, --jobs 1 and --jobs 4 =="
mkdir -p "$scratch/recommend"
if (cd "$scratch/recommend" &&
        "$EXPLORE" --app bv --recommend --jobs 1 > j1.txt 2> j1.err &&
        "$EXPLORE" --app bv --recommend --jobs 4 > j4.txt 2> j4.err &&
        cmp -s j1.txt "$GOLDEN_DIR/recommend_bv.txt" &&
        sed 's/ on 4 workers\.\.\.$/ on 1 workers.../' j4.txt |
            cmp -s - "$GOLDEN_DIR/recommend_bv.txt"); then
    echo "   --recommend report matches golden at 1 and 4 workers"
else
    echo "   --recommend report DIFFERS from golden/recommend_bv.txt" \
        "(see $scratch/recommend)" >&2
    failures=$((failures + 1))
fi

# --- Every golden must have been produced by some spec --------------
for golden_csv in "${golden_files[@]}"; do
    name=$(basename "$golden_csv" .csv)
    if [[ " $covered " != *" $name "* ]]; then
        echo "golden/$name.csv was not produced by any sweep spec" >&2
        failures=$((failures + 1))
    fi
done

if [[ $failures -eq 0 ]]; then
    echo "all spec-driven outputs match the committed golden metrics"
fi
exit "$failures"
