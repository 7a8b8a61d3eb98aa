#!/usr/bin/env bash
# CLI error-path contract for qccd_explore: every bad input must exit
# nonzero with a one-line diagnostic on stderr — no silent defaults, no
# partial output, no crash. Registered with CTest (label tier1) by
# tests/CMakeLists.txt; $1 is the qccd_explore binary, $2 (optional)
# the qccd_lint binary.
set -u

EXPLORE=${1:?usage: cli_errors.sh /path/to/qccd_explore [qccd_lint]}
LINT=${2:-}
failures=0
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

# expect_error DESCRIPTION EXPECTED_STDERR_FRAGMENT ARGS...
# (prefix with want_status=N to require that exact exit code)
expect_error() {
    local desc=$1 fragment=$2
    shift 2
    local stderr_file="$scratch/stderr"
    "$EXPLORE" "$@" > "$scratch/stdout" 2> "$stderr_file"
    local status=$?
    if [[ $status -eq 0 ]]; then
        echo "FAIL: $desc: exited 0, expected nonzero" >&2
        failures=$((failures + 1))
        return
    fi
    if [[ -n ${want_status:-} && $status -ne $want_status ]]; then
        echo "FAIL: $desc: exited $status, expected $want_status" >&2
        failures=$((failures + 1))
        return
    fi
    # A clean diagnostic is exactly one line mentioning the problem.
    local lines
    lines=$(wc -l < "$stderr_file")
    if [[ $lines -ne 1 ]]; then
        echo "FAIL: $desc: expected a one-line diagnostic, got $lines:" >&2
        sed 's/^/    /' "$stderr_file" >&2
        failures=$((failures + 1))
        return
    fi
    if ! grep -q "$fragment" "$stderr_file"; then
        echo "FAIL: $desc: stderr lacks '$fragment':" >&2
        sed 's/^/    /' "$stderr_file" >&2
        failures=$((failures + 1))
        return
    fi
    echo "ok: $desc"
}

expect_error "bad --topology"   "unknown topology"     --topology bogus
expect_error "zero-size topo"   "must be positive"     --topology linear:0
# Malformed spec suffixes/shapes diagnose with the spec and position.
expect_error "bad :s suffix"    "segment count"        --topology linear:6:sX
expect_error "sited :s suffix"  "linear:6:sX':11"      --topology linear:6:sX
expect_error "arity too high"   "takes 1 size"         --topology linear:2x3
expect_error "arity too low"    "takes 2 sizes"        --topology grid:6
expect_error "bare family"      "expected ':'"         --topology ring
expect_error "ring too small"   "at least three"       --topology ring:2
expect_error "missing --topo"   "cannot read topology" --topo "$scratch/none.topo"
expect_error "bad --gate"       "unknown gate"         --gate ZZ
expect_error "bad --reorder"    "unknown reorder"      --reorder XY
expect_error "bad --policy"     "unknown mapping"      --policy fancy
expect_error "bad --app"        "unknown benchmark"    --app nonesuch
expect_error "tiny --capacity"  "at least 2"           --capacity 1
expect_error "text --capacity"  "expected an integer"  --capacity many
expect_error "negative buffer"  "non-negative"         --buffer -1
expect_error "zero --jobs"      "at least 1"           --jobs 0
expect_error "negative --jobs"  "at least 1"           --jobs -3
expect_error "zero --trace"     "at least 1"           --trace 0
expect_error "missing value"    "missing value"        --capacity
expect_error "missing --qasm"   "cannot"               --qasm "$scratch/none.qasm"
expect_error "missing --sweep"  "cannot read sweep"    --sweep "$scratch/none.sweep"

# .topo device files: parse errors carry file:line:col, graph errors
# carry the file name.
printf 'trap a\ntrap a\n' > "$scratch/dup.topo"
expect_error "duplicate .topo node" "dup.topo:2:6"     --topo "$scratch/dup.topo"
printf 'trap a\ntrap b\n' > "$scratch/disc.topo"
expect_error "disconnected .topo"   "must be connected" --topo "$scratch/disc.topo"
printf 'flange a b\n' > "$scratch/directive.topo"
expect_error "bad .topo directive"  "unknown directive" --topo "$scratch/directive.topo"

# QASM number literals: a malformed or out-of-range literal is a
# positioned ConfigError (exit 1, one line), never an uncaught
# std::out_of_range (abort, exit 134) or a silent partial parse.
qasm_literal() { # NAME STATEMENT
    printf 'OPENQASM 2.0;\nqreg q[2];\n%s\n' "$2" > "$scratch/$1.qasm"
}
qasm_literal huge 'rz(1e999) q[0];'
qasm_literal dots 'rz(1.2.3) q[0];'
qasm_literal bare_e 'rz(1e) q[0];'
qasm_literal big_index 'h q[4294967296];'
qasm_literal big_qreg 'qreg r[4294967298];'
want_status=1 expect_error "qasm literal overflow" \
    "line 3, column 4: number '1e999' is out of range" \
    --qasm "$scratch/huge.qasm"
want_status=1 expect_error "qasm literal 1.2.3" "malformed number '1.2.3'" \
    --qasm "$scratch/dots.qasm"
want_status=1 expect_error "qasm literal 1e" "malformed number '1e'" \
    --qasm "$scratch/bare_e.qasm"
want_status=1 expect_error "qasm index overflow" \
    "index 4294967296 out of range for qreg 'q'" \
    --qasm "$scratch/big_index.qasm"
want_status=1 expect_error "qasm qreg overflow" \
    "qreg 'r' of size 4294967298 takes the program past" \
    --qasm "$scratch/big_qreg.qasm"
echo '{"name": "lit", "sweeps": [{"apps": ["qasm:huge.qasm", "bv"],' \
    '"capacity": [14]}]}' > "$scratch/lit.sweep"
want_status=1 expect_error "sweep qasm literal" \
    "number '1e999' is out of range" \
    --sweep "$scratch/lit.sweep" --out "$scratch/lit.csv"
# Under --keep-going the bad point is isolated as infeasible, with the
# positioned diagnostic in the sidecar, and the other point still runs.
"$EXPLORE" --sweep "$scratch/lit.sweep" --out "$scratch/lit.csv" \
    --keep-going > /dev/null 2>&1
status=$?
if [[ $status -eq 3 ]] && grep -q \
    "^0,huge,.*,infeasible,\"QASM parse error at line 3, column 4: " \
    "$scratch/lit.csv.errors" && grep -q "^bv," "$scratch/lit.csv"; then
    echo "ok: keep-going records a bad QASM literal as infeasible"
else
    echo "FAIL: keep-going bad QASM literal: exit $status, sidecar:" >&2
    sed 's/^/    /' "$scratch/lit.csv.errors" >&2 2>/dev/null
    failures=$((failures + 1))
fi

echo '{"name": "x", "sweeps": [{' > "$scratch/broken.sweep"
expect_error "garbled sweep"    "broken.sweep:"        --sweep "$scratch/broken.sweep"

echo '{"name": "x", "sweeps": [{"apps": "qft", "topology": "hexagon:3"}]}' \
    > "$scratch/badtopo.sweep"
expect_error "sweep w/ bad topology" "unknown topology" \
    --sweep "$scratch/badtopo.sweep" --out "$scratch/badtopo.csv"
# A typo'd topology axis fails at parse time with the spec position.
expect_error "sweep topo parse position" "badtopo.sweep:1:" \
    --sweep "$scratch/badtopo.sweep"

echo '{"name": "x", "sweeps": [{"apps": "qft"}]}' > "$scratch/ok.sweep"
expect_error "bad --shard"      "shard must be"        --sweep "$scratch/ok.sweep" --shard 1-2
expect_error "shard out of range" "shard index"        --sweep "$scratch/ok.sweep" --shard 2/2
expect_error "bad --format"     "unknown export"       --sweep "$scratch/ok.sweep" --format xml
expect_error "json + shard"     "requires CSV"         --sweep "$scratch/ok.sweep" --format json --shard 0/2
expect_error "sweep-only flag"  "require --sweep"      --app qft --resume
expect_error "json + keep-going" "requires CSV"        --sweep "$scratch/ok.sweep" --format json --keep-going
expect_error "zero --max-errors" "at least 1"          --sweep "$scratch/ok.sweep" --max-errors 0
expect_error "text --max-errors" "expected an integer" --sweep "$scratch/ok.sweep" --max-errors some
expect_error "zero --point-timeout-ms" "at least 1"    --sweep "$scratch/ok.sweep" --point-timeout-ms 0
expect_error "keep-going w/o sweep" "require --sweep"  --app qft --keep-going
expect_error "max-errors w/o sweep" "require --sweep"  --app qft --max-errors 3

# Surrogate-guided search (--search): flag validation mirrors --sweep.
expect_error "missing --search" "cannot read sweep" \
    --search "$scratch/none.sweep"
expect_error "search + sweep" "not both" \
    --sweep "$scratch/ok.sweep" --search "$scratch/ok.sweep"
expect_error "search + recommend" "not both" \
    --search "$scratch/ok.sweep" --recommend
expect_error "budget w/o search"  "require --search" --app qft --search-budget 5
expect_error "seed w/o search"    "require --search" --app qft --search-seed 7
expect_error "report w/o search"  "require --search" \
    --app qft --search-report "$scratch/r.csv"
expect_error "zero --search-budget" "at least 1" \
    --search "$scratch/ok.sweep" --search-budget 0
expect_error "text --search-budget" "expected an integer" \
    --search "$scratch/ok.sweep" --search-budget few
expect_error "bad --search-seed" "non-negative integer" \
    --search "$scratch/ok.sweep" --search-seed -5
expect_error "sweep-only flag in search" "require --sweep" \
    --search "$scratch/ok.sweep" --resume
expect_error "unwritable search report" "cannot write file" \
    --search "$scratch/ok.sweep" \
    --search-report "$scratch/no-such-dir/r.csv"
# A bad "search" block diagnoses at parse time with the spec position.
echo '{"name": "x", "search": {"budget": 0}, "sweeps": [{"apps": "qft"}]}' \
    > "$scratch/badsearch.sweep"
expect_error "zero spec search budget" "at least 1" \
    --search "$scratch/badsearch.sweep"
echo '{"name": "x", "search": {"bucket": 3}, "sweeps": [{"apps": "qft"}]}' \
    > "$scratch/typosearch.sweep"
expect_error "typo'd search key" "known: budget, eta, seed" \
    --search "$scratch/typosearch.sweep"

# A bad sweep option diagnoses with the spec position, parse-time.
echo '{"name": "x", "sweeps": [{"apps": "qft", "options": {"point_timeout_ms": 0}}]}' \
    > "$scratch/badtimeout.sweep"
expect_error "zero spec timeout" "at least 1"          --sweep "$scratch/badtimeout.sweep"
# So does a device bound: the spec fails before any point runs, and no
# output file is written, whether or not failures would be isolated.
echo '{"name": "x", "sweeps": [{"apps": "bv", "capacity": [1, 14]}]}' \
    > "$scratch/cap1.sweep"
expect_error "spec capacity 1" "cap1\.sweep:1:.*at least 2" \
    --sweep "$scratch/cap1.sweep" --out "$scratch/cap1.csv"
expect_error "spec capacity 1, keep-going" "cap1\.sweep:1:.*at least 2" \
    --sweep "$scratch/cap1.sweep" --out "$scratch/cap1.csv" --keep-going
# A "params" value outside its knob's range is such a bound too.
echo '{"name": "x", "sweeps": [{"apps": "bv", "params": [{"kappa": -1}]}]}' \
    > "$scratch/badparam.sweep"
want_status=1 expect_error "spec param out of range, keep-going" \
    "badparam\.sweep:1:.*'kappa' must be non-negative" \
    --sweep "$scratch/badparam.sweep" --out "$scratch/badparam.csv" \
    --keep-going
if [[ -e "$scratch/cap1.csv" || -e "$scratch/cap1.csv.errors" ||
      -e "$scratch/badparam.csv" || -e "$scratch/badparam.csv.errors" ]]; then
    echo "FAIL: a spec refused at parse time left an output file" >&2
    failures=$((failures + 1))
else
    echo "ok: a spec refused at parse time writes no output"
fi

# Unknown options print usage and exit 2 (argument error).
"$EXPLORE" --frobnicate > /dev/null 2>&1
if [[ $? -ne 2 ]]; then
    echo "FAIL: unknown option should exit 2" >&2
    failures=$((failures + 1))
else
    echo "ok: unknown option exits 2"
fi

# A failed sweep with --out must not leave a half-written output file
# behind when the spec itself is bad (parse errors happen before the
# file is opened).
if [[ -e "$scratch/badtopo.csv" && -s "$scratch/badtopo.csv" ]]; then
    # Run-time errors may leave a header-only file; rows would be wrong.
    rows=$(grep -vc '^application,' "$scratch/badtopo.csv")
    if [[ $rows -ne 0 ]]; then
        echo "FAIL: failed sweep left $rows rows in its output" >&2
        failures=$((failures + 1))
    fi
fi

# Robustness contracts around the failure-adjacent sweep paths.

# --resume after a run died mid-row: the dangling partial line must be
# dropped and re-evaluated, not merged with the next appended row.
cat > "$scratch/tiny.sweep" <<'EOF'
{"name": "tiny", "sweeps": [{"apps": "bv", "capacity": [14, 18]}]}
EOF
(cd "$scratch" && "$EXPLORE" --sweep tiny.sweep > /dev/null 2>&1)
if [[ -s "$scratch/tiny.csv" ]]; then
    head -c 60 "$scratch/tiny.csv" > "$scratch/torn.csv"  # header + torn row
    (cd "$scratch" && "$EXPLORE" --sweep tiny.sweep --out torn.csv \
        --resume > /dev/null 2>&1)
    if cmp -s "$scratch/tiny.csv" "$scratch/torn.csv"; then
        echo "ok: resume recovers a torn final row"
    else
        echo "FAIL: resume after torn row diverges from clean run" >&2
        failures=$((failures + 1))
    fi
else
    echo "FAIL: tiny sweep produced no output to test resume with" >&2
    failures=$((failures + 1))
fi

# --resume must verify recovered rows against the planned points: a
# header-compatible CSV from a *different* sweep is refused, not merged.
echo '{"name": "other", "sweeps": [{"apps": "qft", "capacity": [14, 18]}]}' \
    > "$scratch/other.sweep"
cp "$scratch/tiny.csv" "$scratch/mismatch.csv"
expect_error "mismatched resume" "planned point" \
    --sweep "$scratch/other.sweep" --out "$scratch/mismatch.csv" --resume

# A checkpoint whose sidecar records failures only resumes under
# --keep-going (the rerun must keep honoring the isolation contract).
head -1 "$scratch/tiny.csv" > "$scratch/withfail.csv"
printf 'index,application,topology,capacity,gate,reorder,outcome,error\n0,bv,linear:6,14,FM,GS,error,"x"\n' \
    > "$scratch/withfail.csv.errors"
expect_error "sidecar w/o keep-going" "keep-going" \
    --sweep "$scratch/tiny.sweep" --out "$scratch/withfail.csv" --resume

# A malformed QCCD_FAULT_INJECT spec must abort before main (exit 2):
# a typo'd fault campaign silently testing nothing is itself a bug.
QCCD_FAULT_INJECT="nosuchsite=1" "$EXPLORE" --list \
    > /dev/null 2> "$scratch/stderr"
if [[ $? -ne 2 ]] || ! grep -q "QCCD_FAULT_INJECT" "$scratch/stderr"; then
    echo "FAIL: bad fault-inject spec should exit 2 with a diagnostic" >&2
    failures=$((failures + 1))
else
    echo "ok: bad fault-inject spec exits 2"
fi

# --keep-going: an injected fault yields exit 3, one sidecar row, and
# every other row still present; fault-free runs leave no sidecar.
QCCD_FAULT_INJECT="toolflow.run=1" "$EXPLORE" --sweep "$scratch/tiny.sweep" \
    --out "$scratch/kg.csv" --keep-going > /dev/null 2>&1
status=$?
rows=$(grep -vc '^application,' "$scratch/kg.csv" 2>/dev/null)
sidecar_rows=$(grep -vc '^index,' "$scratch/kg.csv.errors" 2>/dev/null)
if [[ $status -eq 3 && $rows -eq 1 && $sidecar_rows -eq 1 ]]; then
    echo "ok: keep-going isolates an injected fault (exit 3)"
else
    echo "FAIL: keep-going fault run: exit $status, $rows rows," \
         "$sidecar_rows sidecar rows (want 3/1/1)" >&2
    failures=$((failures + 1))
fi
"$EXPLORE" --sweep "$scratch/tiny.sweep" --out "$scratch/kg.csv" \
    --keep-going > /dev/null 2>&1
status=$?
if [[ $status -eq 0 && ! -e "$scratch/kg.csv.errors" ]]; then
    echo "ok: fault-free keep-going exits 0 and clears the stale sidecar"
else
    echo "FAIL: fault-free keep-going: exit $status," \
         "sidecar $([[ -e "$scratch/kg.csv.errors" ]] && echo present || echo absent)" >&2
    failures=$((failures + 1))
fi

# --point-timeout-ms reaches every point of a sweep, a search and a
# --recommend run. One squareroot schedule pass can finish inside 1 ms,
# so the spec runs two passes (decompose_runtime) under the one
# deadline; which stage trips it varies, so only the outcome is matched.
cat > "$scratch/deadline.sweep" <<'EOF'
{"name": "deadline", "search": {"budget": 2}, "sweeps": [{
  "apps": ["qft", "squareroot"], "capacity": 14, "gate": "AM1",
  "reorder": "IS", "options": {"decompose_runtime": true}}]}
EOF
"$EXPLORE" --sweep "$scratch/deadline.sweep" --out "$scratch/deadline.csv" \
    --keep-going --point-timeout-ms 1 > /dev/null 2>&1
status=$?
timeouts=$(grep -c ',timeout,"point exceeded its 1 ms deadline' \
    "$scratch/deadline.csv.errors" 2>/dev/null)
if [[ $status -eq 3 && $timeouts -eq 2 ]]; then
    echo "ok: --point-timeout-ms times out every sweep point (exit 3)"
else
    echo "FAIL: sweep --point-timeout-ms 1: exit $status," \
         "$timeouts timeout rows (want 3/2)" >&2
    failures=$((failures + 1))
fi
want_status=1 expect_error "search --point-timeout-ms" "1 ms deadline" \
    --search "$scratch/deadline.sweep" \
    --search-report "$scratch/deadline.search.csv" --point-timeout-ms 1
want_status=1 expect_error "recommend --point-timeout-ms" "1 ms deadline" \
    --app qft --recommend --point-timeout-ms 1
"$EXPLORE" --sweep "$scratch/deadline.sweep" \
    --out "$scratch/deadline0.csv" --keep-going > /dev/null 2>&1
sweep_status=$?
"$EXPLORE" --search "$scratch/deadline.sweep" \
    --search-report "$scratch/deadline0.search.csv" > /dev/null 2>&1
search_status=$?
if [[ $sweep_status -eq 0 && $search_status -eq 0 ]]; then
    echo "ok: without --point-timeout-ms the same sweep and search pass"
else
    echo "FAIL: deadline spec without the flag: sweep exit" \
         "$sweep_status, search exit $search_status (want 0/0)" >&2
    failures=$((failures + 1))
fi

# Sharded runs without --out must not share one default filename
# (shard 1 would truncate shard 0's output).
(cd "$scratch" && "$EXPLORE" --sweep tiny.sweep --shard 0/2 > /dev/null 2>&1 \
    && "$EXPLORE" --sweep tiny.sweep --shard 1/2 > /dev/null 2>&1)
if [[ -s "$scratch/tiny.shard0of2.csv" && -s "$scratch/tiny.shard1of2.csv" ]] \
    && cat "$scratch/tiny.shard0of2.csv" "$scratch/tiny.shard1of2.csv" \
       | cmp -s - "$scratch/tiny.csv"; then
    echo "ok: sharded default outputs are distinct and concatenate"
else
    echo "FAIL: sharded default output naming" >&2
    failures=$((failures + 1))
fi

# More shards than points: an empty shard still writes its file (shard
# 0 the header, any other nothing), so the in-order concatenation is
# the unsharded CSV, and resuming the empty shard 0 leaves it as is.
printf '{"name": "one", "sweeps": [{"apps": "bv"}]}\n' > "$scratch/one.sweep"
(cd "$scratch" && "$EXPLORE" --sweep one.sweep > /dev/null 2>&1)
for count in 2 3; do
    shards=()
    ran=1
    for ((i = 0; i < count; i++)); do
        (cd "$scratch" && "$EXPLORE" --sweep one.sweep \
            --shard "$i/$count" > /dev/null 2>&1) || ran=0
        shards+=("$scratch/one.shard${i}of${count}.csv")
    done
    if [[ $ran -eq 1 ]] && cat "${shards[@]}" 2> /dev/null \
        | cmp -s - "$scratch/one.csv"; then
        echo "ok: $count shards of one point concatenate to the unsharded run"
    else
        echo "FAIL: a one-point spec over $count shards" >&2
        failures=$((failures + 1))
    fi
done
cp "$scratch/one.shard0of2.csv" "$scratch/one.header.csv" 2> /dev/null
if (cd "$scratch" && "$EXPLORE" --sweep one.sweep --shard 0/2 --resume \
        > /dev/null 2>&1) \
    && cmp -s "$scratch/one.shard0of2.csv" "$scratch/one.header.csv"; then
    echo "ok: --resume of an empty shard 0 keeps its header-only file"
else
    echo "FAIL: --resume of an empty shard 0" >&2
    failures=$((failures + 1))
fi

# A set but malformed QCCD_JOBS must exit 2 with a pointed diagnostic
# naming the variable — never silently fall back to hardware
# concurrency (atoi used to turn "4x" into 4 and "garbage" into a
# surprise core count).
for bad in garbage 4x 0 -2 99999999999999999999; do
    QCCD_JOBS="$bad" "$EXPLORE" --sweep "$scratch/tiny.sweep" \
        --out "$scratch/jobs.csv" > /dev/null 2> "$scratch/stderr"
    if [[ $? -ne 2 ]] || ! grep -q "QCCD_JOBS" "$scratch/stderr" \
        || [[ $(wc -l < "$scratch/stderr") -ne 1 ]]; then
        echo "FAIL: QCCD_JOBS='$bad' should exit 2 with a one-line" \
             "diagnostic" >&2
        failures=$((failures + 1))
    else
        echo "ok: malformed QCCD_JOBS '$bad' exits 2"
    fi
done
# ...and a well-formed QCCD_JOBS still runs, byte-identically.
rm -f "$scratch/jobs.csv"
QCCD_JOBS=2 "$EXPLORE" --sweep "$scratch/tiny.sweep" \
    --out "$scratch/jobs.csv" > /dev/null 2>&1
if [[ $? -eq 0 ]] && cmp -s "$scratch/jobs.csv" "$scratch/tiny.csv"; then
    echo "ok: QCCD_JOBS=2 runs byte-identically to the default"
else
    echo "FAIL: QCCD_JOBS=2 should succeed with identical rows" >&2
    failures=$((failures + 1))
fi

# --analyze must honor --policy: the detailed path used to drop the
# run options, so packed and balanced produced identical analyses.
"$EXPLORE" --app qaoa --policy packed --analyze \
    > "$scratch/an_packed.txt" 2>&1
"$EXPLORE" --app qaoa --policy balanced --analyze \
    > "$scratch/an_balanced.txt" 2>&1
if [[ -s "$scratch/an_packed.txt" && -s "$scratch/an_balanced.txt" ]] \
    && ! cmp -s "$scratch/an_packed.txt" "$scratch/an_balanced.txt"; then
    echo "ok: --analyze honors --policy"
else
    echo "FAIL: --analyze output is policy-blind" >&2
    failures=$((failures + 1))
fi

# Result cache (--cache / --cache-verify): misuse and the refusing
# corruption classes are one-line diagnostics. (Healing classes — torn
# tails, checksum failures — are covered by test_result_store; here the
# contract is that refusal never looks like success.)
expect_error "cache w/o sweep" "require --sweep" \
    --app qft --cache "$scratch/x.qcache"
expect_error "verify w/o cache" "requires a result store" \
    --sweep "$scratch/tiny.sweep" --out "$scratch/cv.csv" --cache-verify
printf 'definitely not a result cache\n' > "$scratch/foreign.qcache"
expect_error "foreign cache file" "not a qccd result cache" \
    --sweep "$scratch/tiny.sweep" --out "$scratch/c1.csv" \
    --cache "$scratch/foreign.qcache"
(cd "$scratch" && "$EXPLORE" --sweep tiny.sweep --out warm.csv \
    --cache warm.qcache > /dev/null 2>&1)
printf '\x02' | dd of="$scratch/warm.qcache" bs=1 seek=8 conv=notrunc \
    2> /dev/null
expect_error "version-skewed cache" "schema version" \
    --sweep "$scratch/tiny.sweep" --out "$scratch/c2.csv" \
    --cache "$scratch/warm.qcache"
# A path that exists but is not a regular file is refused before the
# lock is taken: nothing is "healed" over it and nothing is left behind.
mkdir "$scratch/dir.qcache"
want_status=1 expect_error "directory as cache" \
    "'$scratch/dir.qcache' is not a regular file" \
    --sweep "$scratch/tiny.sweep" --out "$scratch/c5.csv" \
    --cache "$scratch/dir.qcache"
if [[ -e "$scratch/dir.qcache.tmp" || -e "$scratch/dir.qcache.lock" \
      || ! -d "$scratch/dir.qcache" ]]; then
    echo "FAIL: refusing a directory cache left files behind" >&2
    failures=$((failures + 1))
else
    echo "ok: directory cache leaves no .tmp or .lock"
fi
printf '%s\n' "$$" > "$scratch/held.qcache.lock"
expect_error "cache locked by live pid" "locked by running process" \
    --sweep "$scratch/tiny.sweep" --out "$scratch/c3.csv" \
    --cache "$scratch/held.qcache"
cat > "$scratch/conflict.sweep" <<'EOF'
{"name": "conflict", "sweeps": [
  {"apps": "bv", "options": {"cache": "a.qcache"}},
  {"apps": "bv", "options": {"cache": "b.qcache"}}
]}
EOF
expect_error "conflicting spec caches" "conflicting cache paths" \
    --sweep "$scratch/conflict.sweep" --out "$scratch/c4.csv"

# qccd_lint: usage errors exit 2 with one-line stderr; findings exit 1
# with diagnostics on stdout; a clean tree exits 0. Bad artifacts must
# produce diagnostics, never a crash.
if [[ -n "$LINT" ]]; then
    "$LINT" > /dev/null 2> "$scratch/stderr"
    if [[ $? -ne 2 || $(wc -l < "$scratch/stderr") -ne 1 ]]; then
        echo "FAIL: lint with no paths should exit 2, one line" >&2
        failures=$((failures + 1))
    else
        echo "ok: lint usage error exits 2"
    fi

    "$LINT" --frobnicate x > /dev/null 2> "$scratch/stderr"
    if [[ $? -ne 2 ]] || ! grep -q "unknown option" "$scratch/stderr"; then
        echo "FAIL: lint unknown option should exit 2" >&2
        failures=$((failures + 1))
    else
        echo "ok: lint unknown option exits 2"
    fi

    "$LINT" "$scratch/missing.sweep" > "$scratch/stdout" 2>&1
    if [[ $? -ne 1 ]] || ! grep -q "missing-file" "$scratch/stdout"; then
        echo "FAIL: lint on a missing path should exit 1 with a" \
             "missing-file diagnostic" >&2
        failures=$((failures + 1))
    else
        echo "ok: lint missing path is a diagnostic, exit 1"
    fi

    echo '{"name": "x", "sweeps": [{' > "$scratch/garbled.sweep"
    "$LINT" "$scratch/garbled.sweep" > "$scratch/stdout" 2>&1
    if [[ $? -ne 1 ]] || ! grep -qE "garbled\.sweep:[0-9]+:" "$scratch/stdout"; then
        echo "FAIL: lint on a garbled spec should exit 1 with a" \
             "positioned diagnostic" >&2
        failures=$((failures + 1))
    else
        echo "ok: lint garbled spec diagnoses with position"
    fi

    echo '{"name": "ok", "sweeps": [{"apps": ["bv"]}]}' \
        > "$scratch/fine.sweep"
    "$LINT" --quiet "$scratch/fine.sweep" > "$scratch/stdout" 2>&1
    if [[ $? -ne 0 ]] || ! grep -q "0 error(s)" "$scratch/stdout"; then
        echo "FAIL: lint on a clean spec should exit 0" >&2
        failures=$((failures + 1))
    else
        echo "ok: lint clean spec exits 0"
    fi
fi

if [[ $failures -eq 0 ]]; then
    echo "all CLI error paths produce clean one-line diagnostics"
fi
exit "$failures"
