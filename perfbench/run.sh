#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload cluster8-exchange --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# repository: the Go build cache, the binary, and the span dumps and CPU
# profiles of traced runs (.bench_build/out).
set -eu

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root; the module under test (go.mod, internal/) is missing" >&2
	exit 2
fi

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gomod" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

if commit=$(git rev-parse HEAD 2>/dev/null); then
	:
else
	# Not a git checkout: identify the source by a digest of what is built.
	commit="src-$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
export PERFBENCH_COMMIT="$commit"

(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" --out "$build/out" "$@"
