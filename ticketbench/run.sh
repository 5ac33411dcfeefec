#!/usr/bin/env bash
# Build the ticket benchmark from source and run it.  Run from the root of
# a checkout; every argument goes to perf.exe (see ticketbench/README.md):
#   bash ticketbench/run.sh --workload paper-mix --seed 1 --seconds 20 --trace 0
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -f ticketbench/dune ]]; then
  echo "run.sh: not the root of a heimdall checkout (need dune-project, lib/ and ticketbench/)" >&2
  exit 2
fi

# Keep build products, compiler temporaries and the build cache inside
# the checkout.
export DUNE_CACHE=disabled
export TMPDIR="$PWD/.bench_build/tmp"
mkdir -p "$TMPDIR"

dune build --root . --display quiet ./ticketbench/perf.exe >&2
exec ./_build/default/ticketbench/perf.exe "$@"
