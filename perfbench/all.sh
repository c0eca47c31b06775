#!/bin/sh
# Every workload, untraced (end-to-end metrics) then traced (per-layer
# metrics).  Extra arguments go to each run, e.g. --seed 7 --seconds 30.
#
#     sh perfbench/all.sh [--seed N] [--seconds S]
set -e
for workload in global_grid local_cohort wide_search; do
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --trace "$trace" "$@"
    done
done
