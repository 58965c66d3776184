#!/usr/bin/env bash
# Writes a fixed set of CLI documents into the directory given as $1, from
# generated inputs: `random` of every kind and every `compute` form, at
# d = 2 and 3.  Runs `python -m qinstr.cli` on the caller's PYTHONPATH and
# stops at the first command that exits nonzero.
#
#   PYTHONPATH=src bash .github/cli_documents.sh OUT_DIR
set -euo pipefail
out=$1
mkdir -p "$out"
q() { python -m qinstr.cli "$@" > /dev/null; }
for d in 2 3; do
  p="$out/d$d"
  for kind in effect state observable instrument fimm stochastic; do
    q random "$kind" --dim "$d" --seed "$d" -o "$p-$kind.json"
  done
  for kind in effect observable instrument; do
    q random "$kind" --dim "$d" --seed 11 -o "$p-$kind-2.json"
  done
  for kind in effect observable; do
    q compute seq-product "$p-$kind.json" "$p-$kind-2.json" -o "$p-seq-product-$kind.json"
  done
  for kind in observable instrument; do
    q compute conditioned "$p-$kind.json" "$p-$kind-2.json" -o "$p-conditioned-$kind.json"
    q compute convex 0.25,0.75 "$p-$kind.json" "$p-$kind-2.json" -o "$p-convex-$kind.json"
    q compute post-process "$p-stochastic.json" "$p-$kind.json" -o "$p-post-process-$kind.json"
    q compute joint-prob "$p-state.json" "$p-$kind.json" 0 "$p-$kind-2.json" 0,1 -o "$p-joint-prob-$kind.json"
  done
  q compute product-instr "$p-instrument.json" "$p-instrument-2.json" -o "$p-product-instr.json"
  q compute j-map "$p-instrument.json" -o "$p-j-map.json"
  q compute k-map "$p-observable.json" -o "$p-k-map.json"
  q compute dilate "$p-instrument.json" -o "$p-dilate.json"
  q compute model-instr "$p-fimm.json" -o "$p-model-instr.json"
  q compute model-instr "$p-dilate.json" -o "$p-model-instr-dilate.json"
done
