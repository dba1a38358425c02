#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before it lands.
#   build, stock vet, the full test suite under the race detector,
#   and peachyvet (the repo's own SPMD correctness analyzer).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l (tracked Go files but the analyzer's deliberately unparsable loaderr fixture)"
unformatted=$(git ls-files '*.go' | grep -vx 'internal/analysis/testdata/src/loaderr/broken.go' | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "check.sh: ERROR: gofmt would reformat these files:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go test -race ./..."
go test -race ./...

echo "== allocation budgets of the message path and of a knn-shuffle MapReduce op (0.5 MB, its batch arrays recycled), the net mesh's dialer-first bring-up, and one op of each knn-shuffle Go benchmark and distance-kernel row (without -race, which changes allocation counts and slows socket set-up)"
go test -count=1 -run 'Allocs|DialerFirst' ./internal/cluster ./internal/mapreduce ./internal/knn
go test -count=1 -run '^$' -bench MapReduceShuffle -benchtime 1x ./internal/knn
go test -count=1 -run '^$' -bench SqDistKernels -benchtime 1x ./internal/linalg

echo "== bench harness tests (bench/ is its own module, so ./... skips it)"
(cd bench && go test ./...)

echo "== peachyvet -json ./... (examples/ and cmd/ included) -> out/peachyvet.json"
mkdir -p out
go build -o out/peachyvet ./cmd/peachyvet
if ! out/peachyvet -json ./... > out/peachyvet.json; then
	echo "check.sh: ERROR: peachyvet reported findings (or failed to load):" >&2
	cat out/peachyvet.json >&2
	exit 1
fi
echo "peachyvet: clean; wrote out/peachyvet.json"

echo "== observability smoke (trace + metrics + obs-lint)"
mkdir -p out
go run ./cmd/knn -variant mapreduce -ranks 4 -n 2000 -q 500 \
	-trace out/obs_smoke_trace.json -metrics out/obs_smoke_metrics.json >/dev/null
go run ./cmd/peachy obs-lint out/obs_smoke_trace.json out/obs_smoke_metrics.json

echo "== multi-process launch smoke (net device, P=4)"
mkdir -p out
go build -o out/peachy ./cmd/peachy
go build -o out/kmeans ./cmd/kmeans
# An unknown -strategy is a usage error (exit 2), not a silent sequential run.
status=0
out/kmeans -n 100 -strategy bogus >/dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
	echo "check.sh: ERROR: kmeans -strategy bogus exited $status, want 2" >&2
	exit 1
fi
# canonical PATTERN keeps the result line PATTERN matches and strips the
# wall-clock field, the only part allowed to differ between an in-process
# and a launched run.
canonical() { grep "$1" | sed -E 's/ [0-9.]+s,//'; }
out/kmeans -distributed -ranks 4 -n 5000 -k 4 -trace out/launch_inproc_trace.json | canonical '^n=' >out/launch_inproc.txt
out/peachy launch -np 4 out/kmeans -distributed -ranks 4 -n 5000 -k 4 \
	-trace out/launch_trace.json -metrics out/launch_metrics.json | canonical '^n=' >out/launch_multi.txt
if ! diff out/launch_inproc.txt out/launch_multi.txt; then
	echo "check.sh: ERROR: launched world diverged from the in-process run" >&2
	exit 1
fi
out/peachy obs-lint \
	out/launch_trace.json.rank0 out/launch_trace.json.rank1 \
	out/launch_trace.json.rank2 out/launch_trace.json.rank3 \
	out/launch_metrics.json.rank0 out/launch_metrics.json.rank1 \
	out/launch_metrics.json.rank2 out/launch_metrics.json.rank3
cat out/launch_multi.txt

echo "== multi-process launch smoke: MapReduce kNN without a combiner (net device, P=4)"
# Every candidate crosses the shuffle. 16 classes in 2 dimensions overlap,
# so accuracy is 0.8933 rather than the default data set's 1.0000 and a
# wrong shuffle changes the result line.
go build -o out/knn ./cmd/knn
knn_args=(-variant mapreduce -combiner=false -ranks 4 -n 2000 -q 300 -d 2 -classes 16)
out/knn "${knn_args[@]}" | canonical '^variant=' >out/launch_knn_inproc.txt
out/peachy launch -np 4 out/knn "${knn_args[@]}" | canonical '^variant=' >out/launch_knn_multi.txt
if ! diff out/launch_knn_inproc.txt out/launch_knn_multi.txt; then
	echo "check.sh: ERROR: launched MapReduce kNN diverged from the in-process run" >&2
	exit 1
fi
cat out/launch_knn_multi.txt

echo "== cross-rank artifact merge (obs-merge, byte-identical to the in-process trace)"
# Every merge runs the cross-file checks before it writes. The launched
# ranks' merged trace must equal, byte for byte, the trace the in-process
# run of the same program wrote above.
out/peachy obs-merge -o out/launch_trace_merged.json 'out/launch_trace.json.rank*'
if ! cmp out/launch_trace_merged.json out/launch_inproc_trace.json; then
	echo "check.sh: ERROR: the merged launched trace differs from the in-process trace" >&2
	exit 1
fi
out/peachy obs-merge -o out/launch_metrics_merged.json 'out/launch_metrics.json.rank*'
out/peachy obs-lint out/launch_trace_merged.json out/launch_metrics_merged.json

echo "== bench harness smoke (short mode)"
scripts/bench.sh --short

echo "check.sh: all gates passed"
