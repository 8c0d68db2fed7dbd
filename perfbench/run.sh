#!/usr/bin/env bash
# Builds gsqld and the benchmark from the checkout's sources and runs
# one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload ic-hot --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# in the repository root: the Go build cache, the binaries, and each
# run's scratch directory (graph CSVs, gsqld data dirs, span files).
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/gsqld" ]]; then
	echo "run.sh: no gsqld sources (go.mod, cmd/gsqld) in $root; run it from the repository root" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"

# Keep the toolchain's caches, config and temporary files inside the
# checkout, and never reach for a network toolchain or module proxy: the
# build is stdlib-only.
export TMPDIR="$out/tmp"
export GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
# With telemetry on, the first go command of the day forks a detached
# telemetry process that outlives this script; turn it off.
printf 'off' >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -C "$root" -o "$out/bin/gsqld" ./cmd/gsqld >&2
go build -C "$root/perfbench" -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" -gsqld "$out/bin/gsqld" -workdir "$out/run" "$@"
