#!/usr/bin/env bash
# Runs sets of every workload and checks that the sets agree within the
# bounds in BENCHMARK.json. Run it from the repository root:
#
#   bash bench/run.sh [-n runs per set] [-sets count] [-record]
#
# Each run uses its own seed and the window run_seconds of
# BENCHMARK.json; within a set the workload order alternates from run
# to run. Each run's output is kept under bench/runs/<time>/set<k>/.
# The report prints, per set, the median and quartile spread of every
# end-to-end metric and gated window figure of every workload, and how
# far each later set's medians moved from the first set's. -record
# appends one line (commit, date, medians over all runs) to
# bench/trajectory.jsonl.
set -euo pipefail

runs=3
sets=2
record=0
workloads="mine validate mixed restart"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
while [ $# -gt 0 ]; do
	case "$1" in
	-n) runs=$2; shift 2 ;;
	-sets) sets=$2; shift 2 ;;
	-record) record=1; shift ;;
	*) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
	esac
done

out="bench/runs/$(date +%Y%m%d-%H%M%S)"
seed=0
for s in $(seq 1 "$sets"); do
	mkdir -p "$out/set$s"
	for r in $(seq 1 "$runs"); do
		seed=$((seed + 1))
		order=$workloads
		if [ $((r % 2)) -eq 0 ]; then
			order=$(echo "$workloads" | tr ' ' '\n' | tac | tr '\n' ' ')
		fi
		for w in $order; do
			echo "set $s run $r: $w seed $seed" >&2
			# A failed run still leaves its output; the report rejects it.
			bash bench/bench.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
				>"$out/set$s/$w-$seed.out" 2>>"$out/stderr.log" || true
		done
	done
done

args=()
if [ "$record" -eq 1 ]; then
	args=(-record bench/trajectory.jsonl -commit "$(git describe --always --dirty 2>/dev/null || echo unknown)")
fi
.bench_build/adcbench report "${args[@]}" BENCHMARK.json "$out"/set* | tee "$out/report.txt"
