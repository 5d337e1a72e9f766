#!/usr/bin/env bash
# Regenerate expected/<name>.out for every line of ops.txt by running the
# real `astg` CLI, one process per op (so every op starts with cold caches).
# Run from the repository root:  bash perfbench/record.sh
# It takes about ten seconds; fig1 and PAR synth dominate.
set -euo pipefail
here=perfbench
dune build --root . ./bin/astg.exe
astg=./_build/default/bin/astg.exe
mkdir -p "$here/expected"
grep -v '^\s*\(#\|$\)' "$here/ops.txt" | while read -r _workloads name verb spec flags; do
  # shellcheck disable=SC2086  # flags are split on purpose
  "$astg" "$verb" $flags "$here/specs/$spec" < /dev/null > "$here/expected/$name.out"
  echo "recorded $name"
done
