#!/usr/bin/env bash
# The golden bytes must not depend on which libm variants glibc picks
# for this CPU. glibc selects FMA or SSE2 code for exp, log, pow and
# log1p when a process starts (static binaries too); its own tunable
# masks the FMA variants for one process and changes no machine
# setting. This reruns test_golden_toolflow and scripts/check_golden.sh
# under that mask, after proving on each probe that the mask changes a
# libm result. Registered with CTest (label tier1) by
# tests/CMakeLists.txt; exits 77, a ctest skip, on a non-glibc host or
# a CPU without FMA.
#
# Usage: no_fma_libm.sh BUILD_DIR TEST_GOLDEN_TOOLFLOW PROBE...
set -u

BUILD_DIR=${1:?usage: no_fma_libm.sh BUILD_DIR TEST_GOLDEN_TOOLFLOW PROBE...}
GOLDEN_TEST=${2:?usage: no_fma_libm.sh BUILD_DIR TEST_GOLDEN_TOOLFLOW PROBE...}
shift 2
MASK=glibc.cpu.hwcaps=-FMA,-AVX2,-FMA4
REPO_DIR=$(cd "$(dirname "$0")/.." && pwd)

for probe in "$@"; do
    plain=$(GLIBC_TUNABLES= "$probe") || exit 1
    masked=$(GLIBC_TUNABLES=$MASK "$probe") || exit 1
    echo "$(basename "$probe"): unmasked $plain; masked $masked"
    if [[ $plain != glibc=1* ]]; then
        echo "SKIP: not a glibc host, so glibc.cpu.hwcaps does not exist"
        exit 77
    fi
    if [[ $plain != *fma=1* ]]; then
        echo "SKIP: the CPU reports no FMA, so there is no FMA libm to mask"
        exit 77
    fi
    if [[ $plain == "$masked" ]]; then
        echo "FAIL: $MASK left exp() unchanged in $probe;" \
             "the check below would prove nothing" >&2
        exit 1
    fi
done

if ! GLIBC_TUNABLES=$MASK "$GOLDEN_TEST"; then
    echo "FAIL: test_golden_toolflow differs under $MASK" >&2
    exit 1
fi
if ! GLIBC_TUNABLES=$MASK bash "$REPO_DIR/scripts/check_golden.sh" \
        "$BUILD_DIR"; then
    echo "FAIL: check_golden.sh differs under $MASK" >&2
    exit 1
fi
echo "golden bytes hold with glibc's FMA libm variants masked"
