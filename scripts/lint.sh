#!/bin/sh
# Run the static invariant lint battery: the @check-lint alias drives
# `peel_cli check` over representative fabrics (healthy, failed,
# budgeted), the @trace-smoke alias lints a traced simulation's export
# (SIM005/SIM006), the @failover-smoke alias lints mid-run failure
# injection with re-peeling (SIM007/TREE006), the @ctrl-smoke alias
# lints the two-stage refinement control plane (CTRL001-005), the
# @par-smoke alias verifies the conservative sharded engine (jobs=1 vs
# jobs=4 bit-equality plus the SIM008 window-causality lint), the
# @compile-smoke alias certifies the fleet-level rule compiler and
# proves every seeded table corruption is caught by its CMP code
# (CMP001-005), the @zoo-smoke alias certifies generalized
# layer-peeling on every topology-zoo class and proves each seeded
# TOPO corruption is caught by its code (TOPO001-004), the
# @serve-scale-smoke alias certifies the million-group service fast
# path at a 10^5-group cell (same-seed replay and cache-off replay
# equality, a clean SVC001-004 state lint at scale, and a seeded
# member-set corruption that must be diagnosed), and the unit suite
# exercises every diagnostic code. The experiment-harness
# suite carries the parallel-sweep determinism gate: it re-runs the
# fig5 sweep under 1 and 4 worker domains and fails unless the rows
# are bit-identical. The documentation gate lives in scripts/docs.sh
# (its own ci.sh stage). Three static steps come first: the code reads
# no ambient configuration, planning and checking code never writes
# link state, and every value lib/ exports has a caller outside its
# module or an allowlisted reason (scripts/dead_exports.sh).
# Exits non-zero on the first violated invariant.
set -eu
cd "$(dirname "$0")/.."

# Flags and config records are the only way to configure a run.  Two
# environment reads are allowed in lib/ and bin/: the host's worker
# count (PEEL_JOBS, lib/util/pool.ml) and the debug-assertion switch
# (PEEL_CHECK, [env_var] in lib/check/peel_check.ml).
env_reads=$(grep -rn --include='*.ml' 'Sys\.getenv' lib bin \
  | grep -v '^lib/util/pool\.ml:[0-9]*: *match Sys\.getenv_opt "PEEL_JOBS" with$' \
  | grep -v '^lib/check/peel_check\.ml:[0-9]*: *match Sys\.getenv_opt env_var with$' \
  || true)
if [ -n "$env_reads" ] \
  || ! grep -q '^let env_var = "PEEL_CHECK"$' lib/check/peel_check.ml; then
  echo "lint.sh: environment reads other than PEEL_JOBS/PEEL_CHECK:" >&2
  echo "$env_reads" >&2
  exit 1
fi

# Planning and checking code reads link state and never writes it: a
# check that flips links cannot run next to a fault stream, and a memo
# hit must not depend on one having run.  No .ml file under these
# directories may name a link-state writer (Graph.fail_link,
# recover_link, restore_all; Fabric.fail_random, recover_link;
# Link_state.set_link_up), qualified, opened or aliased.
link_writes=$(grep -rnwE --include='*.ml' \
  'fail_link|recover_link|restore_all|fail_random|set_link_up' \
  lib/check lib/steiner lib/core lib/prefix lib/compile lib/ctrl || true)
if [ -n "$link_writes" ]; then
  echo "lint.sh: planning or checking code writes link state:" >&2
  echo "$link_writes" >&2
  exit 1
fi

# Every export of lib/ has a caller outside its own module, or a reason
# in scripts/exports.allow that its .mli repeats.
sh scripts/dead_exports.sh

dune build @check-lint
dune build @trace-smoke
dune build @par-smoke
dune build @failover-smoke
dune build @ctrl-smoke
dune build @compile-smoke
dune build @zoo-smoke
dune build @serve-scale-smoke
dune exec test/test_check.exe -- -c
dune exec test/test_compile.exe -- -c
dune exec test/test_experiments.exe -- -c
