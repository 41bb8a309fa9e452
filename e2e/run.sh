#!/usr/bin/env bash
# The one documented entry point: build pt-e2e, run every workload
# (REPEAT untraced runs and one traced run each), store the run, and print
# the regression bounds its noise floor supports. Run from anywhere; the
# outputs land in the current directory.
#
#   e2e/run.sh                 # seed 2005, 5 repeats, 15 s windows
#   SEED=7 REPEAT=3 e2e/run.sh
#
# To compare two stored runs against the bounds in BENCHMARK.json:
#   pt-e2e compare-runs A.json B.json --bounds BENCHMARK.json
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
repo="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
commit="$(git -C "$repo" rev-parse --short HEAD 2>/dev/null || echo unknown)"

# --offline: the sandbox has no registry; every dependency is a path crate
# or one of the stand-ins under shims/.
CARGO_TARGET_DIR="$target" cargo build --offline --release --manifest-path "$here/Cargo.toml"
bin="$target/release/pt-e2e"

"$bin" --seed "${SEED:-2005}" --repeat "${REPEAT:-5}" --commit "$commit" \
    --out e2e-run.json --emit-ptdf e2e-run.ptdf
"$bin" bounds e2e-run.json
echo "stored: e2e-run.json e2e-run.ptdf trace.<workload>.json"
echo "if the bounds above exceed BENCHMARK.json's, lengthen the workload; do not widen the bound"
