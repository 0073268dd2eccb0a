#!/usr/bin/env bash
# Builds pbld and the benchmark from the checkout in the current
# directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload hit-zipf --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache and the go command's own
# files (its config under XDG_CONFIG_HOME) stay under .bench_build/.
# Go telemetry is switched off there: in its default local mode the go
# command forks a detached sidecar process that can outlive the run.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
for f in go.mod cmd/pbld testdata/golden/run_paper_seed.json; do
	if [ ! -e "$f" ]; then
		echo "perfbench: $f not found; run from the root of a checkout" >&2
		exit 2
	fi
done
mkdir -p "$out/tmp" "$out/config/go/telemetry"
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOTOOLCHAIN=local GOFLAGS= GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config"
go build -o "$out/pbld" ./cmd/pbld
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -pbld "$out/pbld" -work "$out/work" "$@"
