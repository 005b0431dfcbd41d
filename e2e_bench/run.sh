#!/usr/bin/env bash
# Builds the workload benchmark from source and runs it.  Run from the root
# of the repository; the arguments go to `workloads.exe run`, e.g.
#
#   bash e2e_bench/run.sh --workload compile-roster --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line on stdout is the result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f e2e_bench/dune ]; then
  echo "run.sh: not at the root of the repository (dune-project, lib/ or e2e_bench/ missing)" >&2
  exit 2
fi

# the shared dune cache lives outside the repository; keep the build inside it
DUNE_CACHE=disabled dune build --root . ./e2e_bench/workloads.exe 1>&2
exec ./_build/default/e2e_bench/workloads.exe run "$@"
