#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation in sequence,
# collecting each binary's stdout under results/ (cargo's and the binaries'
# progress lines go to stderr). Respects UGRAPHER_SCALE / UGRAPHER_QUICK.
# A binary that fails leaves its results/<bin>.txt untouched and its
# partial stdout in results/<bin>.txt.partial; the remaining binaries still
# run, and the script then exits non-zero, naming the failures.
set -u
cd "$(dirname "$0")/.."
mkdir -p results

BINS=(
  tbl02_operator_census
  tbl03_datasets
  tbl04_op_registry
  tbl05_strategy_coverage
  fig03_dgl_limits
  tbl06_tradeoffs
  fig07_strategy_variation
  fig12_predictor
  fig13_end_to_end
  fig01_heatmap
  fig14_per_model
  fig15_per_dataset
  fig16_metrics
  tbl09_optimal_strategies
  fig17_basic_vs_optimal
  fig18_group_tile_sweep
  fig19_renumbering
  overhead_predictor
  ablations
  calibration
  tuner_comparison
)

failed=()
for bin in "${BINS[@]}"; do
  echo "=== running $bin ==="
  if cargo run --release --quiet -p ugrapher-bench --bin "$bin" >"results/$bin.txt.partial"; then
    mv "results/$bin.txt.partial" "results/$bin.txt"
    echo "    ok -> results/$bin.txt"
  else
    failed+=("$bin")
    echo "    FAILED -> results/$bin.txt.partial"
  fi
done
if ((${#failed[@]})); then
  echo "failed figure binaries: ${failed[*]}" >&2
  exit 1
fi
echo "all figure binaries done."
