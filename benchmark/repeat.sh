#!/usr/bin/env sh
# Run the whole suite twice on this commit with one seed and check that
# the two runs agree: every host and memory end-to-end metric within its
# own bound, every simulated counter identical. Prints one row per
# workload and metric; exits non-zero on any disagreement.
#
#   sh benchmark/repeat.sh [seed]
set -eu
cd "$(dirname "$0")/.."
seed="${1:-1}"
run="cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --"
$run --seed "$seed" --out benchmark/out/repeat_a.json
$run --seed "$seed" --out benchmark/out/repeat_b.json
$run --compare benchmark/out/repeat_a.json benchmark/out/repeat_b.json
