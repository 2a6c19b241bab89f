#!/usr/bin/env bash
# Builds the benchmark (perfbench) from source and runs it:
#
#   bash perfbench/run.sh --workload policy-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# trace files all go to $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout, and the go command is kept off the network and out of $HOME.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/mod \
	GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOENV=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out-dir "$out" "$@"
