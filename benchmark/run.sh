#!/usr/bin/env bash
# Builds the benchmark and the serve binary from the checkout it is run
# in, then runs one benchmark workload. Run it from the repository root:
#
#   bash benchmark/run.sh --workload tables_exact --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, binaries,
# scratch directories) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/sim" ] || [ ! -d "$root/cmd/serve" ]; then
	echo "run.sh: run from the repository root; the simulator sources are missing here" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home" "$build/bin" "$build/work"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	HOME="$build/home" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$build/bin/serve" ./cmd/serve
go -C benchmark build -o "$build/bin/ledger" .

exec "$build/bin/ledger" --start-ns "$(date +%s%N)" --bin "$build/bin" --work "$build/work" "$@"
