#!/bin/sh
# Build the benchmark from the sources of this checkout, then run it:
#
#   sh bench/perf/run.sh --workload NAME --seed N --seconds T --trace 0|1
#
# Run from the root of the checkout.  Build output goes to standard
# error; the last line of standard output is the result object.  The
# dune cache is disabled so that nothing is written outside the
# checkout.
set -u
DUNE_CACHE=disabled dune build --root . --display quiet ./bench/perf/perf.exe 1>&2 || exit 2
exec ./_build/default/bench/perf/perf.exe run "$@"
