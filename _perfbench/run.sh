#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash _perfbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#
# Run from the repository root. The Go build cache, the binary and the
# traced run's Chrome trace file go to $CARGO_TARGET_DIR (default
# .bench_build) under the current directory; HOME and the Go caches are
# pointed there too, so the run reads and writes nothing outside it.
set -euo pipefail

root="$(pwd)"
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac

if [ ! -f "$bench_dir/../go.mod" ]; then
	echo "run.sh: no go.mod above $bench_dir; run from a full checkout" >&2
	exit 2
fi

mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=

(cd "$bench_dir" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build" "$@"
