#!/bin/sh
# Bench drift guard: recompute every section of the benchmark record
# that the experiment registry (lib/experiments/registry.ml) marks
# guarded, plus a jobs=1 vs jobs=4 sweep, and compare them against the
# committed BENCH.json.  The simulator is bit-deterministic, so any
# numeric drift beyond float round-trip tolerance means a behaviour
# change slipped in — exits non-zero so CI catches it.
#
# Equivalent to `dune build @bench-guard`.
set -eu
cd "$(dirname "$0")/.."
dune build bench/main.exe
exec ./_build/default/bench/main.exe guard
