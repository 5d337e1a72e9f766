#!/usr/bin/env bash
# Build the benchmark and the astg binary from source, then run it:
#   bash perfbench/run.sh --workload synth|reduce|serve --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no source tree to build here" >&2
  exit 2
fi
dune build --root . --build-dir _build ./perfbench/perfbench.exe ./bin/astg.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
