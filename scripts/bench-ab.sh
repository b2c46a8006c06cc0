#!/usr/bin/env bash
# Same-machine A/B of the repository benchmark against a base revision:
#
#   scripts/bench-ab.sh <base-rev>
#
# The base side is <base-rev>, checked out in a git worktree at
# .bench_build/ab-base; the change side is the current checkout, with any
# uncommitted edits. Both sides run their own, unmodified
# `bash bench/run.sh` in alternating pairs: for every workload that
# BENCHMARK.json declares, pair k (k = 1..6) runs
# `--workload W --seed k --seconds 1 --trace 0` on both sides, the base
# first when k is odd and the change first when k is even. The pair
# count is even so that each side runs first equally often: on a shared
# VM the first run of a pair can be the faster one for minutes at a
# time, and with an odd count the median ratio inherits that bias.
#
# For every workload and end-to-end metric it prints both sides' medians
# and the median and interquartile range of the per-pair change/base
# ratios. Alternating pairs cancel the slow drift of a shared machine,
# so the ratio is the number compared with BENCHMARK.json's bound. The
# workloads, metrics, directions and bounds are all read from that file.
#
# Exit status: 0 when the change holds every bound; 1 when a median
# ratio is worse than its bound, any run exits non-zero or reports
# "correct": false, or the change fails a larger share of its attempted
# points than the base; 2 on a usage error.
#
# Every run's result line goes to .bench_build/ab/runs.jsonl and the
# harness's standard error to .bench_build/ab/stderr.log.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: scripts/bench-ab.sh <base-rev>" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git rev-parse --verify --quiet "$1^{commit}") || {
	echo "bench-ab: $1 is not a commit" >&2
	exit 2
}

pairs=6
seconds=1
wt=.bench_build/ab-base
out=.bench_build/ab

cleanup() { git worktree remove --force "$wt" >/dev/null 2>&1 || true; }
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM
cleanup
git worktree prune
git worktree add --quiet --detach "$wt" "$base"
if [ ! -f "$wt/bench/run.sh" ] || [ ! -f "$wt/BENCHMARK.json" ]; then
	echo "bench-ab: $1 has no bench/run.sh and BENCHMARK.json to compare against" >&2
	exit 1
fi
rm -rf "$out"
mkdir -p "$out"

# run SIDE WORKLOAD PAIR appends one run's result line, or null when the
# run printed none, to runs.jsonl.
run() {
	local side=$1 workload=$2 pair=$3 dir=$root line status=0
	[ "$side" = base ] && dir=$root/$wt
	line=$(cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$pair" \
		--seconds "$seconds" --trace 0 2>>"$root/$out/stderr.log" | tail -n 1) || status=$?
	echo "bench-ab: $workload pair $pair $side: exit $status" >&2
	jq -cn --arg w "$workload" --arg side "$side" --argjson pair "$pair" \
		--argjson exit "$status" --arg line "$line" \
		'{workload: $w, pair: $pair, side: $side, exit: $exit, result: ($line | fromjson? // null)}' \
		>>"$out/runs.jsonl"
}

for workload in $(jq -r '.workloads[].name' BENCHMARK.json); do
	if ! jq -e --arg w "$workload" 'any(.workloads[]; .name == $w)' "$wt/BENCHMARK.json" >/dev/null; then
		echo "bench-ab: $workload is new in this change; the base cannot run it, so it is not compared" >&2
		continue
	fi
	for pair in $(seq 1 "$pairs"); do
		if [ $((pair % 2)) -eq 1 ]; then
			run base "$workload" "$pair"
			run change "$workload" "$pair"
		else
			run change "$workload" "$pair"
			run base "$workload" "$pair"
		fi
	done
done

# One tab-separated line per workload and metric, and one "FAIL ..."
# line per failed check. Values print to four significant digits;
# quartiles interpolate linearly between order statistics.
report=$(jq -rn --slurpfile spec BENCHMARK.json '
	def q(p): sort as $s | ((($s | length) - 1) * p) as $i | ($i | floor) as $lo
		| $s[$lo] + ($s[$i | ceil] - $s[$lo]) * ($i - $lo);
	def ok: .exit == 0 and .result.correct == true;
	def share: (map(.result.failed // 0) | add) / ([(map(.result.attempted // 0) | add), 1] | max);
	def fmt: if . == 0 then "0"
		else (fabs | log10 | floor) as $e | pow(10; 3 - $e) as $k | . * $k | round / $k | tostring end;
	[inputs] as $runs
	| [$runs[] | select(ok | not)
		| "FAIL \(.workload) pair \(.pair) \(.side): exit \(.exit), correct \(.result.correct)"] as $broken
	| [$spec[0].workloads[].name as $w
		| [$runs[] | select(.workload == $w)] | select(length > 0) as $wr
		| ($wr | map(select(.side == "base")) | share) as $bf
		| ($wr | map(select(.side == "change")) | share) as $cf
		| (if $cf > $bf then ["FAIL \($w): failed/attempted \($cf | fmt), base \($bf | fmt)"] else [] end)
		+ [$spec[0].end_to_end[] as $m
			| [$wr | group_by(.pair)[]
				| select(length == 2 and all(.[]; ok))
				| (map(select(.side == "base"))[0].result.metrics[$m.name].value) as $b
				| (map(select(.side == "change"))[0].result.metrics[$m.name].value) as $c
				| select($b != null and $c != null and $b != 0)
				| {b: $b, c: $c, r: ($c / $b)}] as $p
			| if ($p | length) == 0 then "FAIL \($w) \($m.name): no pair to compare"
			else ($p | map(.r) | q(0.5)) as $med
				| (if $m.better == "higher" then $med < 1 - $m.bound else $med > 1 + $m.bound end) as $worse
				| [$w, $m.name, $m.better, ($p | map(.b) | q(0.5) | fmt), ($p | map(.c) | q(0.5) | fmt),
					($med | fmt), ($p | map(.r) | q(0.75) - q(0.25) | fmt), ($m.bound | fmt), ($p | length),
					(if $worse then "WORSE" else "ok" end)] | @tsv,
				(if $worse then "FAIL \($w) \($m.name): median change/base \($med | fmt) is worse than the \($m.bound) bound (\($m.better) is better)" else empty end)
			end]
	  ] | flatten[], $broken[]
' "$out/runs.jsonl")

{
	printf 'workload\tmetric\tbetter\tbase\tchange\tratio\tiqr\tbound\tpairs\tverdict\n'
	grep -v '^FAIL' <<<"$report" || true
} | while IFS=$'\t' read -r w m better b c r iqr bound n verdict; do
	printf '%-16s %-13s %-7s %12s %12s %8s %8s %6s %5s  %s\n' "$w" "$m" "$better" "$b" "$c" "$r" "$iqr" "$bound" "$n" "$verdict"
done
if grep -q '^FAIL' <<<"$report"; then
	grep '^FAIL' <<<"$report"
	exit 1
fi
echo "bench-ab: every workload holds its bounds against $base"
