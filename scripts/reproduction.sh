#!/bin/sh
# Regenerates docs/REPRODUCTION.md from the stdout of the paper's figure,
# table and ablation bins at their default sizes (seed 42; about a second
# of run time on a release build). CI runs it and fails on any diff.
#
#   scripts/reproduction.sh
set -eu
cd "$(dirname "$0")/.."
cargo build --release --quiet -p endurance-bench --bins
out=docs/REPRODUCTION.md
{
    echo "# Reproduction: the paper's figure and tables"
    echo
    echo "Generated by \`scripts/reproduction.sh\`; do not edit by hand. Each"
    echo "section is the standard output of one \`endurance-bench\` bin at its"
    echo "default size: the paper's schedule scaled to 1 200 s for Figure 1 and"
    echo "the headline, to 900 s for the baselines and the ablations, seed 42"
    echo "throughout. Given \`full\`, \`fig1_precision_recall\` and"
    echo "\`table_headline\` simulate the paper's 6 h 17 m instead. A change to"
    echo "detection, the generator or the recorder shows up here as a diff."
    for bin in fig1_precision_recall table_headline table_baselines \
        ablation_drift_gate ablation_parameters ablation_periodicity; do
        echo
        echo "## \`$bin\`"
        echo
        echo '```text'
        cargo run --release --quiet -p endurance-bench --bin "$bin"
        echo '```'
    done
} >"$out"
