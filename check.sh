#!/bin/sh
# check.sh — the tier-1 verification gate. Every multi-step gate is
# defined once, here; .github/workflows/ci.yml calls the subcommands.
# Run from the module root. Fails fast on the first broken step.
#
#   ./check.sh                 every gate
#   ./check.sh GATE [GATE...]  only the named gates, in order:
#     fmt         gofmt-clean tree
#     vet         easyio-vet findings, registry, cache and determinism
#                 (writes /tmp/easyio-vet.sarif, /tmp/easyio-vet-partition.json)
#     partition   partition.json deterministic, committed, sound
#     redundancy  BENCH_redundancy.json parity trade-off bounds
#     perfbench   _perfbench self-tests
#     fuzz        native fuzzers, a fixed time each
#     smoke       bench smoke and -parallel/-simworkers byte-identity
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

gate_fmt() {
	echo '== gofmt (every file formatted)'
	unformatted=$(gofmt -l .)
	test -z "$unformatted" || { echo "not gofmt-clean:"; echo "$unformatted"; exit 1; }
}

# vet_bin builds easyio-vet once per invocation.
vet_bin() {
	test -x "$tmp/easyio-vet" || go build -o "$tmp/easyio-vet" ./cmd/easyio-vet
}

# vet_main is the gating easyio-vet run over the default cache; its SARIF
# and partition report are the artifacts CI uploads.
vet_main() {
	test -f "$tmp/main.done" && return
	vet_bin
	"$tmp/easyio-vet" -sarif /tmp/easyio-vet.sarif -partition /tmp/easyio-vet-partition.json ./...
	touch "$tmp/main.done"
}

# vet_uncached runs easyio-vet without the cache at -parallel 1 and 4,
# once per invocation: vet diffs the findings, partition the reports.
vet_uncached() {
	test -f "$tmp/part4.json" && return
	vet_bin
	"$tmp/easyio-vet" -nocache -parallel 1 -partition "$tmp/part1.json" ./... > "$tmp/p1.txt"
	"$tmp/easyio-vet" -nocache -parallel 4 -partition "$tmp/part4.json" ./... > "$tmp/p4.txt"
}

# host_of prints the first host block of a BENCH json on one line
# ("numcpu=N gomaxprocs=N go=V goarch=A"), or nothing if it has none.
host_of() {
	grep -q '"host": {' "$1" || return 0
	line=
	for k in numcpu gomaxprocs go goarch; do
		v=$(grep -o "\"$k\": [^,}]*" "$1" | sed -n 1p | sed 's/^[^:]*: //; s/"//g')
		line="$line${line:+ }$k=$v"
	done
	echo "$line"
}

gate_vet() {
	echo '== easyio-vet ./... (SARIF and partition report to /tmp)'
	vet_main

	echo '== analyzer registry completeness (>= 24 analyzers, each with fixtures)'
	n=$("$tmp/easyio-vet" -list | wc -l)
	echo "registered analyzers: $n"
	test "$n" -ge 24 || { echo "only $n analyzers registered"; exit 1; }
	go test ./internal/analysis -run TestFixtureCoverage -v

	echo '== easyio-vet cache smoke (warm rerun byte-identical, all hits, faster, host-stamped, within 2x of BENCH_vet.json)'
	"$tmp/easyio-vet" -cache-dir "$tmp/cache" -benchjson "$tmp/cold.json" ./... > "$tmp/cold.txt"
	"$tmp/easyio-vet" -cache-dir "$tmp/cache" -benchjson "$tmp/warm.json" ./... > "$tmp/warm.txt"
	diff "$tmp/cold.txt" "$tmp/warm.txt"
	grep -q '"cache_hits": 0' "$tmp/cold.json" || { echo "cold run unexpectedly hit the cache"; exit 1; }
	grep -q '"cache_misses": 0' "$tmp/warm.json" || { echo "warm run missed the cache"; exit 1; }
	cold=$(grep -o '"wall_ms": [0-9.eE+-]*' "$tmp/cold.json" | grep -o '[0-9.eE+-]*$')
	warm=$(grep -o '"wall_ms": [0-9.eE+-]*' "$tmp/warm.json" | grep -o '[0-9.eE+-]*$')
	echo "cold $cold ms, warm $warm ms"
	awk -v c="$cold" -v w="$warm" 'BEGIN { exit !(w < c) }' || { echo "warm run ($warm ms) not faster than cold ($cold ms)"; exit 1; }
	host=$(host_of "$tmp/cold.json")
	case " $host " in "  " | *"= "*) echo "cold BENCH json has no complete host block: '$host'"; exit 1 ;; esac
	base_host=$(host_of BENCH_vet.json)
	echo "vet host: $host; baseline host ${base_host:-unknown}"
	# Regression gate: fresh cold/warm wall time must stay within 2x of
	# the committed BENCH_vet.json baseline (cold first, warm second).
	base_cold=$(grep -o '"wall_ms": [0-9.]*' BENCH_vet.json | grep -o '[0-9.]*' | sed -n 1p)
	base_warm=$(grep -o '"wall_ms": [0-9.]*' BENCH_vet.json | grep -o '[0-9.]*' | sed -n 2p)
	awk -v f="$cold" -v b="$base_cold" 'BEGIN { exit !(f <= 2*b) }' || { echo "cold vet run ($cold ms) regressed past 2x baseline ($base_cold ms)"; exit 1; }
	awk -v f="$warm" -v b="$base_warm" 'BEGIN { exit !(f <= 2*b) }' || { echo "warm vet run ($warm ms) regressed past 2x baseline ($base_warm ms)"; exit 1; }

	echo '== typestate engine cost (six protocols <= 25% of cold wall-clock)'
	ts_ms=0
	for p in svclifecycle horizonproto epochbudget handlestate persistorder parityepoch; do
		v=$(grep -o "\"$p\": [0-9.eE+-]*" "$tmp/cold.json" | grep -o '[0-9.eE+-]*$')
		test -n "$v" || { echo "cold BENCH json missing analyzer timing for $p"; exit 1; }
		ts_ms=$(awk -v a="$ts_ms" -v b="$v" 'BEGIN { printf "%.6f", a + b }')
	done
	awk -v t="$ts_ms" -v w="$cold" 'BEGIN { exit !(t <= 0.25 * w) }' || { echo "typestate engine ($ts_ms ms) exceeds 25% of cold wall-clock ($cold ms)"; exit 1; }

	echo '== easyio-vet parallel determinism (-parallel 4 vs 1, uncached)'
	vet_uncached
	diff "$tmp/p1.txt" "$tmp/p4.txt"
}

gate_partition() {
	echo '== partition report (deterministic, matches committed, lock graph acyclic)'
	vet_main > /dev/null
	vet_uncached
	diff "$tmp/part1.json" "$tmp/part4.json"
	stale="partition.json is stale; regenerate with: go run ./cmd/easyio-vet -nocache -partition partition.json ./..."
	diff "$tmp/part1.json" partition.json || { echo "$stale"; exit 1; }
	diff /tmp/easyio-vet-partition.json partition.json || { echo "$stale"; exit 1; }
	grep -q '"acyclic": true' partition.json || { echo "lock-order graph is not acyclic"; exit 1; }
	grep -q '"unguarded_findings": 0' partition.json || { echo "unguarded cross-node shared-mutable state detected"; exit 1; }
	test "$(grep -c '"status": "clean"' partition.json)" -eq 6 || { echo "a typestate protocol is violated module-wide (see partition.json protocols)"; exit 1; }
}

gate_redundancy() {
	echo '== redundancy artifact gate (epoch-parity p99 <= 1.2x off, lag within bound)'
	awk '
	  function val(  v) { v = $2; gsub(/,/, "", v); return v + 0 }
	  /"delay_bound_ns":/ { bound = val() }
	  /"mode":/           { epoch = ($2 ~ /"epoch"/) }
	  /"p99_ratio":/ && epoch {
	    cells++
	    if (val() > 1.2) { printf "epoch-parity p99 ratio %s exceeds 1.2x parity-off\n", $2; bad = 1 }
	  }
	  /"max_lag_ns":/ && epoch {
	    if (val() > bound) { printf "epoch parity max lag %s ns exceeds delay bound %d ns\n", $2, bound; bad = 1 }
	  }
	  END {
	    if (cells == 0) { print "no epoch-mode cells in BENCH_redundancy.json"; bad = 1 }
	    exit bad
	  }
	' BENCH_redundancy.json || { echo "BENCH_redundancy.json violates the parity trade-off gate; regenerate with: go run ./cmd/easyio-serve -redjson BENCH_redundancy.json"; exit 1; }
}

# The benchmark module's self-tests. _perfbench sits outside ./... (the
# leading underscore), so nothing else builds the entry points it drives.
gate_perfbench() {
	echo '== perfbench self-tests'
	(cd _perfbench && go test .)
}

# Seed corpora already run under plain go test; this gate also mutates.
gate_fuzz() {
	echo '== fuzz (FuzzDeviceReadWrite, 15s)'
	go test ./internal/pmem -run '^$' -fuzz '^FuzzDeviceReadWrite$' -fuzztime 15s
}

gate_smoke() {
	echo '== bench smoke (one iteration of every benchmark)'
	go test -bench=. -benchtime=1x -run '^$' ./internal/sim .

	go build -o "$tmp/easyio-bench" ./cmd/easyio-bench
	go build -o "$tmp/easyio-serve" ./cmd/easyio-serve

	echo '== parallel runner byte-identity (-parallel 4 vs sequential)'
	"$tmp/easyio-bench" -exp all -quick -parallel 1 > "$tmp/bench-seq.txt"
	"$tmp/easyio-bench" -exp all -quick -parallel 4 > "$tmp/bench-par.txt"
	diff "$tmp/bench-seq.txt" "$tmp/bench-par.txt"

	echo '== serving sweep smoke (-parallel 1 vs 4 byte-identity)'
	"$tmp/easyio-serve" -quick -parallel 1 > "$tmp/serve-p1.txt"
	"$tmp/easyio-serve" -quick -parallel 4 > "$tmp/serve-p4.txt"
	diff "$tmp/serve-p1.txt" "$tmp/serve-p4.txt"

	echo '== cluster scaling smoke (-simworkers 1 vs 4 byte-identity)'
	"$tmp/easyio-bench" -exp fig9 -quick -simworkers 1 > "$tmp/bench-sw1.txt"
	"$tmp/easyio-bench" -exp fig9 -quick -simworkers 4 > "$tmp/bench-sw4.txt"
	diff "$tmp/bench-sw1.txt" "$tmp/bench-sw4.txt"
	"$tmp/easyio-serve" -quick -simworkers 1 > "$tmp/serve-sw1.txt"
	"$tmp/easyio-serve" -quick -simworkers 4 > "$tmp/serve-sw4.txt"
	diff "$tmp/serve-sw1.txt" "$tmp/serve-sw4.txt"
}

if [ $# -gt 0 ]; then
	for g in "$@"; do
		case $g in
		fmt | vet | partition | redundancy | perfbench | fuzz | smoke) ;;
		*) echo "usage: $0 [fmt|vet|partition|redundancy|perfbench|fuzz|smoke]..." >&2; exit 2 ;;
		esac
	done
	for g in "$@"; do
		"gate_$g"
	done
	exit
fi

gate_fmt

echo '== go build ./...'
go build ./...

echo '== go vet ./...'
go vet ./...

gate_vet
gate_partition
gate_redundancy

echo '== go test ./...'
go test ./...

gate_perfbench
gate_fuzz

echo '== go test -race -tags easyio_invariants ./...'
go test -race -tags easyio_invariants ./...

gate_smoke

echo 'check.sh: all gates green'
