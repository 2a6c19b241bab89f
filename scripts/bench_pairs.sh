#!/bin/sh
# Alternating parent/change pairs of one benchmark workload, summarised by
# the rule a claimed gain must meet:
#
#   make bench-pairs BASE=<rev> WORKLOAD=<name> PAIRS=10 [SEED=1] [RUN_SECONDS=20]
#   (or: sh scripts/bench_pairs.sh <rev> <workload> [pairs] [first-seed] [seconds])
#
# Builds perfbench from a clean export of <rev> (git archive, so the
# repository itself is left untouched) and from the working tree, then runs
# <pairs> pairs of
#
#   bash perfbench/run.sh --workload <workload> --seed S --seconds 20 --trace 0
#
# one seed per pair (first-seed, first-seed+1, ...), the base side first on
# odd pairs and the working tree first on even ones. Each run's last line is
# printed as it lands. For each end-to-end metric of BENCHMARK.json it then
# prints both sides' median and quartiles (linear interpolation, as
# perfbench's own percentiles), the change's move, its wins (ties count for
# neither side) and the gap between the medians against the base's
# interquartile range. "claim" marks a metric that meets the gain rule: the
# change wins at least nine pairs in ten, and its median is better by more
# than that range. A run that fails, or whose answers are not correct, stops
# the script. The base builds under $TMPDIR, the working tree under its own
# .bench_build (as run.sh does by hand); nothing under perfbench/ is edited.
# CI does not run it: one pair takes about a minute.
set -eu

BASE=${1:?usage: bench_pairs.sh <base-rev> <workload> [pairs] [first-seed] [seconds]}
WORKLOAD=${2:?usage: bench_pairs.sh <base-rev> <workload> [pairs] [first-seed] [seconds]}
PAIRS=${3:-10}
SEED=${4:-1}
RUN_SECONDS=${5:-20}
ROOT=$(git rev-parse --show-toplevel)
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

mkdir "$TMP/base"
git -C "$ROOT" archive "$BASE" | tar -x -C "$TMP/base"

# run <side> <pair> <seed>: one benchmark run; appends "pair side metric
# value" lines to $TMP/runs and "side failed attempted" to $TMP/answers.
run() {
	case $1 in
	base) src=$TMP/base build=$TMP/build ;;
	work) src=$ROOT build=$ROOT/.bench_build ;;
	esac
	last=$(cd "$src" && CARGO_TARGET_DIR=$build bash perfbench/run.sh \
		--workload "$WORKLOAD" --seed "$3" --seconds "$RUN_SECONDS" --trace 0 | tail -n 1)
	echo "pair $2 seed $3 $1: $last"
	case $last in
	*'"correct":true'*) ;;
	*) echo "bench_pairs: $1 run of pair $2 failed its answer checks" >&2; exit 1 ;;
	esac
	echo "$last" | tr '}' '\n' |
		sed -n "s/.*\"\([a-z0-9_]*\)\":{\"value\":\([^,]*\),.*/$2 $1 \1 \2/p" >>"$TMP/runs"
	echo "$last" | sed -n "s/.*\"attempted\":\([0-9]*\),\"failed\":\([0-9]*\).*/$1 \2 \1/p" >>"$TMP/answers"
}

echo "== $WORKLOAD: $PAIRS pairs, seeds $SEED..$((SEED + PAIRS - 1)), ${RUN_SECONDS} s a run; base $BASE"
i=1
while [ "$i" -le "$PAIRS" ]; do
	s=$((SEED + i - 1))
	if [ $((i % 2)) -eq 1 ]; then
		run base "$i" "$s"
		run work "$i" "$s"
	else
		run work "$i" "$s"
		run base "$i" "$s"
	fi
	i=$((i + 1))
done

# Which way each end-to-end metric improves, from BENCHMARK.json.
awk -F'"' '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
	on && $2 == "name" { name = $4 } on && $2 == "better" { print name, $4 }' \
	"$ROOT/BENCHMARK.json" >"$TMP/better"

awk '
function q(side, m, p,   n, i, j, t, v, pos, lo) {
	n = cnt[side, m]
	for (i = 1; i <= n; i++) v[i] = val[side, m, i]
	for (i = 2; i <= n; i++) {
		t = v[i]
		for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
		v[j + 1] = t
	}
	pos = p * (n - 1) + 1
	lo = int(pos)
	if (lo >= n) return v[n]
	return v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
FILENAME ~ /better$/ { better[$1] = $2; next }
FILENAME ~ /answers$/ { failed[$1] += $2; attempted[$1] += $3; next }
{
	pair = $1; side = $2; m = $3
	val[side, m, ++cnt[side, m]] = $4
	by[pair, side, m] = $4
	if (!(m in seen)) { seen[m] = 1; order[++nm] = m }
	if (pair > pairs) pairs = pair
}
END {
	printf "%-12s %-30s %-30s %8s %6s  %s\n", "metric", "base median [q1-q3]", "change median [q1-q3]", "move", "wins", "gap vs base IQR"
	for (k = 1; k <= nm; k++) {
		m = order[k]
		if (!(m in better)) continue
		b1 = q("base", m, 0.25); b2 = q("base", m, 0.5); b3 = q("base", m, 0.75)
		w1 = q("work", m, 0.25); w2 = q("work", m, 0.5); w3 = q("work", m, 0.75)
		sign = better[m] == "higher" ? 1 : -1
		wins = 0
		for (p = 1; p <= pairs; p++)
			if (sign * (by[p, "work", m] - by[p, "base", m]) > 0) wins++
		gap = sign * (w2 - b2)
		iqr = b3 - b1
		move = b2 != 0 ? sprintf("%+.1f%%", 100 * (w2 - b2) / b2) : "n/a"
		claim = (wins >= 0.9 * pairs && gap > iqr) ? "  claim" : ""
		printf "%-12s %-30s %-30s %8s %3d/%-2d  %.4g %s %.4g%s\n", m,
			sprintf("%.4g [%.4g-%.4g]", b2, b1, b3), sprintf("%.4g [%.4g-%.4g]", w2, w1, w3),
			move, wins, pairs, gap, (gap > iqr ? ">" : "<="), iqr, claim
	}
	printf "answers: base %d failed of %d, change %d failed of %d\n", failed["base"], attempted["base"], failed["work"], attempted["work"]
}' "$TMP/better" "$TMP/answers" "$TMP/runs"
