#!/usr/bin/env bash
# Builds what the benchmark needs and runs Part 1 with the given flags:
#
#   bash benchmark/run.sh                      all five workloads, end to end
#   bash benchmark/run.sh --workload point_deep --seed 1 --seconds 16 --trace 0
#   bash benchmark/run.sh --workload mixed_rw --trace 1     per-layer metrics and a span file
#   bash benchmark/run.sh -aa 5                A/A self-check of this tree
#
# Everything it writes — the three binaries, Go's build cache, program
# files, WAL directories, span files — goes under .bench_build/ at the
# root of the checkout. The binaries are rebuilt when any .go file or
# go.mod of the checkout changes.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"

# Keep the Go tool inside the checkout too: no cache, module download,
# toolchain switch or telemetry file anywhere else.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

stamp=$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -printf '%p %s %T@\n' | LC_ALL=C sort | sha1sum)
if [ ! -x "$out/bench" ] || [ ! -x "$out/existdlog" ] || [ "$(cat "$out/stamp" 2>/dev/null)" != "$stamp" ]; then
	rm -f "$out/stamp"
	(cd "$root" && go build -o "$out/existdlog" ./cmd/existdlog) >&2
	(cd "$root/benchmark" && go build -o "$out/bench" .) >&2
	# Part 2 reaches into the module's packages. If a refactor there
	# breaks its build, Part 1 still runs and says why the in-process
	# layer metrics are missing.
	if ! (cd "$root/benchmark" && go build -o "$out/layers" ./layers) 2>"$out/layers.err"; then
		rm -f "$out/layers"
		echo "benchmark: building benchmark/layers failed; see .bench_build/layers.err" >&2
	fi
	echo "$stamp" >"$out/stamp"
fi

cd "$root"
exec "$out/bench" "$@"
