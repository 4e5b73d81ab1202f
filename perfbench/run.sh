#!/usr/bin/env bash
# Build provdb, provdbd and the benchmark from source, then run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr, so the
# result object stays the last line of standard output.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -f bin/provdbd.ml ]; then
  echo "perfbench: run from the root of a provdb source tree" >&2
  exit 2
fi
dune build --root . bin/provdb.exe bin/provdbd.exe perfbench/provbench.exe >&2
exec _build/default/perfbench/provbench.exe \
  --provdb "$PWD/_build/default/bin/provdb.exe" \
  --provdbd "$PWD/_build/default/bin/provdbd.exe" "$@"
