#!/bin/bash
# Regenerate every paper artifact under results/.
#
# The sweep-shaped figures (fig8/fig9/fig10/fig11) run through the
# `idasim sweep` engine: parallel across IDA_JOBS workers, journaled to
# results/<grid>.journal.jsonl so a killed run resumes where it left
# off, aggregate JSON in results/<grid>.json plus the rendered table in
# results/<grid>.txt. The remaining experiments are single-config
# `idasim paper` runs and run serially. Knobs: IDA_SCALE=smoke|full,
# IDA_REQUESTS=N, IDA_JOBS=N.
set -euo pipefail
cd "$(dirname "$0")"

jobs="${IDA_JOBS:-$(nproc)}"
mkdir -p results

echo "=== build ==="
cargo build --release -p ida-cli

for grid in fig8 fig9 fig10 fig11; do
  echo "=== sweep $grid (jobs=$jobs) ==="
  target/release/idasim sweep "$grid" \
    --jobs "$jobs" \
    --journal "results/$grid.journal.jsonl" \
    --out "results/$grid.json" \
    --progress \
    > "results/$grid.txt" 2> "results/$grid.log"
  echo "done $grid"
done

for exp in table3_workloads fig4_read_distribution table4_refresh_overhead \
           table5_mlc fig6_qlc blocks_overhead \
           ablation_lsb_placement ablation_coding_232; do
  echo "=== paper $exp ==="
  target/release/idasim paper "$exp" > "results/$exp.txt" 2> "results/$exp.log"
  echo "done $exp"
done

echo "all experiments complete; outputs in results/"
