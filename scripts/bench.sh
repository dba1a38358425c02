#!/usr/bin/env bash
# Benchmark harness for the cluster runtime: runs the transport/collective
# microbenchmarks plus the cluster-backed experiment benchmarks and records
# the numbers in BENCH_cluster.json — the tracked baseline to diff against
# when touching the mailbox, the collective algorithms, or the kernels
# under them. Parsing is plain awk: no dependencies beyond the go toolchain.
#
# Usage:
#   scripts/bench.sh            # full run, rewrites BENCH_cluster.json
#   scripts/bench.sh --short    # quick smoke (few iterations, subset),
#                               # writes out/BENCH_cluster.short.json and
#                               # leaves the tracked baseline alone
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-full}"
OUT="BENCH_cluster.json"
NET_OUT="BENCH_net.json"
OBS_OUT="BENCH_obs_metrics.json"

case "$MODE" in
--short | short)
	BENCHTIME=5x
	CLUSTER_RE='BenchmarkPingPong|BenchmarkMessageRate|BenchmarkCollectives/(Barrier|Allreduce)/|BenchmarkObsOverhead/(detached|nil-recorder)'
	NET_RE='BenchmarkNetPingPong/1024B|BenchmarkNetAllreduce/P2'
	ROOT_RE='BenchmarkC8TaskFarm'
	ANALYZER_RE=''
	OUT="out/BENCH_cluster.short.json"
	NET_OUT="out/BENCH_net.short.json"
	OBS_OUT="out/BENCH_obs_metrics.short.json"
	;;
full | --full)
	BENCHTIME=1s
	CLUSTER_RE='BenchmarkPingPong|BenchmarkAllreduce|BenchmarkMessageRate|BenchmarkCollectives|BenchmarkObsOverhead'
	NET_RE='BenchmarkNetPingPong|BenchmarkNetAllreduce'
	ROOT_RE='BenchmarkC1KNNMapReduce|BenchmarkC2CombinerEffect|BenchmarkC4KMeansDistributed|BenchmarkC8TaskFarm'
	ANALYZER_RE='BenchmarkAnalyzeOwnership|BenchmarkAnalyzePerf'
	;;
*)
	echo "usage: scripts/bench.sh [--short]" >&2
	exit 2
	;;
esac

TMP="$(mktemp)"
NET_TMP="$(mktemp)"
trap 'rm -f "$TMP" "$NET_TMP"' EXIT

# bench_json parses `go test -bench` output into the tracked JSON shape.
bench_json() {
	awk -v host="$(uname -sm)" -v gover="$(go version | awk '{print $3}')" \
		-v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
	/^Benchmark/ {
		name = $1; sub(/-[0-9]+$/, "", name)
		ns = ""; allocs = ""; simus = ""; shuffle = ""; msgs = ""; bytes = ""
		for (i = 3; i < NF; i += 2) {
			v = $i; u = $(i + 1)
			if (u == "ns/op") ns = v
			else if (u == "allocs/op") allocs = v
			else if (u == "sim-us") simus = v
			else if (u == "shuffle-bytes") shuffle = v
			else if (u == "msgs/op") msgs = v
			else if (u == "bytes/op") bytes = v
		}
		if (ns == "") next
		line = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s", name, ns)
		if (allocs != "") line = line sprintf(", \"allocs_per_op\": %s", allocs)
		if (simus != "") line = line sprintf(", \"sim_us\": %s", simus)
		if (shuffle != "") line = line sprintf(", \"shuffle_bytes\": %s", shuffle)
		if (msgs != "") line = line sprintf(", \"msgs_per_op\": %s", msgs)
		if (bytes != "") line = line sprintf(", \"bytes_per_op\": %s", bytes)
		rows[n++] = line "}"
	}
	END {
		printf "{\n  \"host\": \"%s\",\n  \"go\": \"%s\",\n  \"date\": \"%s\",\n  \"benchmarks\": [\n", host, gover, date
		for (i = 0; i < n; i++) printf "%s%s\n", rows[i], (i < n - 1 ? "," : "")
		printf "  ]\n}\n"
	}' "$1"
}

echo "== cluster microbenchmarks (benchtime=$BENCHTIME)"
go test -run '^$' -bench "$CLUSTER_RE" -benchmem -benchtime "$BENCHTIME" ./internal/cluster | tee -a "$TMP"

echo "== cluster-backed experiment benchmarks (benchtime=$BENCHTIME)"
go test -run '^$' -bench "$ROOT_RE" -benchmem -benchtime "$BENCHTIME" . | tee -a "$TMP"

# The analyzer pass benchmarks type-check the whole repository before
# their first pass, so the short smoke leaves them out: bench/'s vet-corpus
# workload times the analyzer, and TestRepositoryIsClean asserts what
# their clean-repo checks do.
if [ -n "$ANALYZER_RE" ]; then
	echo "== analyzer ownership and perf/determinism pass benchmarks (benchtime=$BENCHTIME)"
	go test -run '^$' -bench "$ANALYZER_RE" -benchmem -benchtime "$BENCHTIME" ./internal/analysis | tee -a "$TMP"
fi

mkdir -p "$(dirname "$OUT")"
bench_json "$TMP" >"$OUT"

COUNT="$(grep -c '"name"' "$OUT" || true)"
if [ "$COUNT" -eq 0 ]; then
	echo "bench.sh: ERROR: parsed zero benchmark lines out of the go test output" >&2
	echo "bench.sh: the benchmark regexes matched nothing or the output format changed" >&2
	exit 1
fi
echo "bench.sh: wrote $OUT ($COUNT benchmarks)"

# Net-device pass: the same transport shapes over unix sockets, recorded
# separately so the in-process vs over-the-wire cost is a one-file diff.
echo "== net device benchmarks (benchtime=$BENCHTIME)"
go test -run '^$' -bench "$NET_RE" -benchmem -benchtime "$BENCHTIME" ./internal/cluster | tee -a "$NET_TMP"

mkdir -p "$(dirname "$NET_OUT")"
bench_json "$NET_TMP" >"$NET_OUT"

NET_COUNT="$(grep -c '"name"' "$NET_OUT" || true)"
if [ "$NET_COUNT" -eq 0 ]; then
	echo "bench.sh: ERROR: parsed zero net-device benchmark lines" >&2
	exit 1
fi
echo "bench.sh: wrote $NET_OUT ($NET_COUNT benchmarks)"

# Archive the observability metrics for the flagship cluster exhibit next
# to the benchmark baseline, so traffic-matrix drift is tracked alongside
# timing drift.
echo "== obs metrics archive (knn mapreduce, P=4)"
go run ./cmd/knn -variant mapreduce -ranks 4 -n 2000 -q 500 -metrics "$OBS_OUT" >/dev/null
go run ./cmd/peachy obs-lint "$OBS_OUT"
echo "bench.sh: wrote $OBS_OUT"
