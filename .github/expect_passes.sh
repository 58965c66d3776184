#!/usr/bin/env bash
# Runs `qinstr verify ARGS...` with numpy RuntimeWarnings as errors (an
# overflow, or an invalid sqrt that would give a NaN residual, fails the run),
# prints its output, and exits 1 unless it exits 0 and prints exactly COUNT
# `pass` lines: a suite that slides from pass to unknown still exits 0.
# Runs `python -m qinstr.cli` on the caller's PYTHONPATH.
#
#   PYTHONPATH=src bash .github/expect_passes.sh COUNT ARGS...
set -euo pipefail
count=$1
shift
out=$(python -W error::RuntimeWarning -m qinstr.cli verify "$@")
echo "$out"
passed=$(grep -c ': pass ' <<< "$out" || true)
if [ "$passed" -ne "$count" ]; then
  echo "qinstr verify $*: $passed suites pass, expected $count"
  exit 1
fi
