#!/bin/sh
# Builds the benchmark and the prbpd daemon from source with dune, then
# runs the benchmark with the given arguments.  Run it from the root of
# the repository, e.g.
#
#   sh benchmark/run.sh --workload exact --seed 1 --seconds 25 --trace 0
#
# The dune cache is disabled so that everything the build writes stays
# inside the checkout (under _build/).
set -eu
dune build --root . --cache=disabled benchmark/main.exe benchmark/prbpd.exe 1>&2
exec _build/default/benchmark/main.exe "$@"
