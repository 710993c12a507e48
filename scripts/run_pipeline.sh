#!/usr/bin/env bash
# End-to-end desk run: synthesize a dataset, train every model variant on it,
# and render the comparison report.
set -euo pipefail
OUT=${1:-runs/pipeline}
SEED=${2:-0}

confrank gen-data --out "$OUT/data" --force
mkdir -p "$OUT/metrics"
VARIANTS=$(python3 -c 'from confrank.config import VARIANTS; print(" ".join(VARIANTS))')
for v in $VARIANTS; do
  confrank train --dataset "$OUT/data" --out "$OUT/train_$v" \
    --variant "$v" --seed "$SEED" --force
  cp "$OUT/train_$v"/metrics_*.json "$OUT/metrics/"
done
confrank report --metrics "$OUT/metrics"
echo "report written to $OUT/metrics/report.txt"
