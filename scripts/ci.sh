#!/bin/sh
# The whole CI gate in one command, in dependency order:
#
#   1. build   — dune build (strict warnings are errors)
#   2. test    — dune runtest (unit, property, and differential suites)
#   3. lint    — scripts/lint.sh (static invariant battery: @check-lint,
#                @trace-smoke, @par-smoke, @failover-smoke, @ctrl-smoke,
#                @compile-smoke, diagnostic-code suites)
#   4. cli     — dune build @cli-sweep (every valued flag of every
#                peel_cli subcommand at 0, -1 and nan must exit 0 or
#                2, never with an internal error)
#   5. serve   — dune build @serve-smoke @serve-scale-smoke (the
#                open-loop service controller under the SVC lint
#                battery and the same-seed replay contract, plus
#                the million-group fast path at a 10^5-group cell)
#   6. docs    — scripts/docs.sh (@doc build; when odoc is installed
#                the rendering must be warning-free)
#   7. bench   — scripts/bench_guard.sh (deterministic drift guard
#                against the committed BENCH.json)
#
# Each stage is timed; the script exits non-zero at the first failure.
set -eu
cd "$(dirname "$0")/.."

stage() {
  name=$1
  shift
  echo "ci.sh: [$name] $*"
  start=$(date +%s)
  "$@"
  end=$(date +%s)
  echo "ci.sh: [$name] ok in $((end - start))s"
}

stage build dune build
stage test dune runtest
stage lint sh scripts/lint.sh
stage cli dune build @cli-sweep
stage serve dune build @serve-smoke @serve-scale-smoke
stage docs sh scripts/docs.sh
stage bench sh scripts/bench_guard.sh
echo "ci.sh: all stages passed"
