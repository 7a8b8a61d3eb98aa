#!/usr/bin/env bash
# The link mode src/CMakeLists.txt chose for the shipped tools must be
# the one the binary reports: --build-info measures it (no program
# interpreter loaded means static). Registered with CTest (label tier1)
# by tests/CMakeLists.txt; $1 is the qccd_explore binary, $2 the
# configured mode, static or dynamic.
set -euo pipefail

EXPLORE=${1:?usage: build_info.sh /path/to/qccd_explore static|dynamic}
WANT=${2:?usage: build_info.sh /path/to/qccd_explore static|dynamic}

info=$("$EXPLORE" --build-info)
echo "$info"
if ! grep -qx "link=$WANT" <<< "$info"; then
    echo "FAIL: configured link=$WANT, but the binary reports otherwise" >&2
    exit 1
fi
