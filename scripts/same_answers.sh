#!/bin/sh
# Identity check for changes that must not move any simulated answer:
#
#   make same-answers BASE=<ref>        (or: sh scripts/same_answers.sh <ref>)
#
# Builds specmpk-sim twice, from a clean export of <ref> and from the working
# tree. Then it runs every catalogue workload (-list) under each of the five
# policies with every output file on, plus the program listing (-disasm) and
# the annotated disassembly (-annotate) on stdout, and compares stdout and the
# five files byte for byte. A second run per cell writes -stats-interval
# deltas as JSONL, and a third runs the program to its end (no -cycles cap)
# with -stats-out, both compared byte for byte too, so an answer that moves
# only after the first 400,000 cycles still shows. It also builds specmpk-bench
# on both sides and compares the text and -json output of every job-driven
# experiment on two small workloads and of the security experiments (table1,
# fig13), of fig10 (the one purely functional experiment, cheap enough to run
# over the whole catalogue), and the sampled experiment's -json rows without
# their wall times (sampledMS, fullMS, speedup), which vary from run to run.
# Last it builds examples/spectre, examples/datarace and examples/simpoint on
# both sides and compares their stdout: Spectre-BTI, the speculative buffer
# overflow, Kard on the cycle-level machines and a plan built at a
# non-default interval length appear in no experiment. It prints each output
# that differs and exits non-zero if any does.
# Everything lives under one temporary directory ($TMPDIR), removed on exit,
# so nothing is written inside the checkout. CI does not run it: a change
# that means to move an answer fails it by design.
set -eu

BASE=${1:?usage: same_answers.sh <base-ref>}
ROOT=$(git rev-parse --show-toplevel)
TP=00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
POLICIES="serialized nonsecure specmpk delayupgrade noforward"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "== build specmpk-sim, specmpk-bench and three examples at $BASE and in the working tree"
mkdir "$TMP/src"
git -C "$ROOT" archive "$BASE" | tar -x -C "$TMP/src"
for side in base work; do
	src=$TMP/src
	[ "$side" = work ] && src=$ROOT
	(cd "$src" && go build -buildvcs=false -o "$TMP/$side.sim" ./cmd/specmpk-sim &&
		go build -buildvcs=false -o "$TMP/$side.bench" ./cmd/specmpk-bench &&
		go build -buildvcs=false -o "$TMP/$side.spectre" ./examples/spectre &&
		go build -buildvcs=false -o "$TMP/$side.datarace" ./examples/datarace &&
		go build -buildvcs=false -o "$TMP/$side.simpoint" ./examples/simpoint)
done

# run <side> <workload> <policy>: one run with every output, one interval run
# and one full-length run, into $TMP/<side>/<workload>.<policy>/; status holds
# their exit codes.
run() {
	d=$TMP/$1/$2.$3
	mkdir -p "$d"
	status=0 istatus=0 fstatus=0
	"$TMP/$1.sim" -workload "$2" -mode "$3" -cycles 400000 -trace 40 -pipeview 60 -disasm -annotate \
		-stats-out "$d/stats.json" -prom-out "$d/stats.prom" -trace-out "$d/trace.jsonl" \
		-konata-out "$d/konata.log" -konata-n 3000 -profile-out "$d/profile.json" \
		-traceparent "$TP" >"$d/stdout" 2>/dev/null || status=$?
	"$TMP/$1.sim" -workload "$2" -mode "$3" -cycles 400000 -stats-interval 50000 \
		-stats-out "$d/intervals.jsonl" >/dev/null 2>&1 || istatus=$?
	"$TMP/$1.sim" -workload "$2" -mode "$3" -stats-out "$d/full.json" >/dev/null 2>&1 || fstatus=$?
	echo "$status $istatus $fstatus" >"$d/status"
}

cells=0
differ=0
for wl in $("$TMP/work.sim" -list | awk '{print $1}'); do
	for pol in $POLICIES; do
		run base "$wl" "$pol"
		run work "$wl" "$pol"
		cells=$((cells + 1))
		for f in status stdout stats.json stats.prom trace.jsonl konata.log profile.json intervals.jsonl full.json; do
			if ! cmp -s "$TMP/base/$wl.$pol/$f" "$TMP/work/$wl.$pol/$f"; then
				echo "DIFFERS: $wl $pol $f"
				differ=$((differ + 1))
			fi
		done
		rm -rf "$TMP/base/$wl.$pol" "$TMP/work/$wl.$pol"
	done
done

# bench <side> <out> <workloads> <args...>: one specmpk-bench run on the
# workloads (empty: the whole catalogue), stdout into $TMP/<side>.<out>
# followed by its exit code.
WORKLOADS=541.leela_r,557.xz_r
bench() {
	side=$1 out=$2 wl=$3
	shift 3
	status=0
	"$TMP/$side.bench" -workloads "$wl" "$@" >"$TMP/$side.$out" 2>/dev/null || status=$?
	echo "exit $status" >>"$TMP/$side.$out"
}

echo "== experiments on $WORKLOADS, fig10 on the whole catalogue"
outs=""
for e in fig3 fig4 fig9 fig11 rdpkru pkrusafe window stats table1 fig13; do
	for side in base work; do
		bench "$side" "$e.txt" "$WORKLOADS" "$e"
		bench "$side" "$e.json" "$WORKLOADS" -json "$e"
	done
	outs="$outs $e.txt $e.json"
done
for side in base work; do
	bench "$side" fig10.txt "" fig10
	bench "$side" fig10.json "" -json fig10
done
outs="$outs fig10.txt fig10.json"
for side in base work; do
	bench "$side" sampled.raw "$WORKLOADS" -json sampled
	grep -v '"sampledMS"\|"fullMS"\|"speedup"' "$TMP/$side.sampled.raw" >"$TMP/$side.sampled.json" || true
done
outs="$outs sampled.json"
for out in $outs; do
	if ! cmp -s "$TMP/base.$out" "$TMP/work.$out"; then
		echo "DIFFERS: specmpk-bench $out"
		differ=$((differ + 1))
	fi
done

echo "== examples spectre, datarace and simpoint"
for ex in spectre datarace simpoint; do
	for side in base work; do
		status=0
		"$TMP/$side.$ex" >"$TMP/$side.$ex.out" 2>/dev/null || status=$?
		echo "exit $status" >>"$TMP/$side.$ex.out"
	done
	if ! cmp -s "$TMP/base.$ex.out" "$TMP/work.$ex.out"; then
		echo "DIFFERS: example $ex"
		differ=$((differ + 1))
	fi
done

if [ "$differ" -ne 0 ]; then
	echo "same-answers: $differ outputs differ from $BASE across $cells runs and the experiments" >&2
	exit 1
fi
echo "same-answers: $cells runs, stdout, five output files, an interval run and a full-length run each, identical to $BASE"
echo "same-answers: experiments $(echo $outs | wc -w) outputs identical to $BASE"
echo "same-answers: examples spectre, datarace and simpoint identical to $BASE"
