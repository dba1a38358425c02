package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// config is one run's settings.
type config struct {
	seed    uint64
	seconds int
	trace   bool
	// ops, when positive, replaces the time budget of each measured phase
	// with a fixed op count and skips the warm-up (the smoke test).
	ops  int
	work string // scratch directory for sockets
}

// runner is one workload brought to life: inputs generated and the
// oracle computed by its constructor, untimed.
type runner interface {
	// up brings the system up — a world or a mesh up, a Load — and leaves
	// it ready for batch. The harness calls and times it before every
	// batch.
	up() error
	// batch runs n ops, recording their latencies, failures and layer
	// counts in t, and returns the wall time the ops took.
	batch(n int, t *tally) (time.Duration, error)
	// layers derives the workload's own per-layer metrics from an
	// untraced and a traced phase.
	layers(plain, traced *tally) map[string]float64
	close()
}

// workload names a runner constructor and how its ops are batched.
type workload struct {
	name string
	open func(cfg config) (runner, error)
	// quantum is the op count batches are multiples of (default 1). The
	// workloads with a 95th percentile make it at least minP95, so that
	// every batch reports one whatever the host's speed.
	quantum int
	// fixedOps, when set, gives a phase's op count from its budget in
	// seconds instead of running until the budget is spent.
	fixedOps func(seconds float64) int
}

var workloads = []*workload{
	{name: "kmeans-c4", open: openKMeansC4},
	{name: "knn-shuffle", open: openKNNShuffle},
	{name: "coll-p4", open: openCollP4, quantum: minP95},
	{name: "net-pingpong", open: openNetPingPong, quantum: 2 * sizeCycle},
	{name: "vet-corpus", open: openVetCorpus, fixedOps: vetPasses},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// tally accumulates what one phase of a run measured. Latencies and call
// timings are summarised per batch, and a run reports its quietest batch
// (see quietest). Keeping summaries rather than every op also keeps the
// harness's own memory, and so the workload's peak RSS, independent of
// the op count.
type tally struct {
	traced      bool
	ops, failed int
	wall        time.Duration // timed wall of the ops, summed over batches
	sim         float64       // simulated makespan summed over ops, s
	simOps      int
	mallocs     uint64 // runtime.MemStats deltas over the batches
	allocBytes  uint64
	setup       []float64 // seconds of each set-up, one before every batch
	rss         []float64 // this process's peak RSS over each set-up and batch, MB
	// Per batch: ops per second, and the median and (for batches of at
	// least minP95 ops) 95th percentile of the ops' latencies in µs.
	rate, p50, p95 []float64
	// timers holds, per public call the harness times, the median of each
	// batch's timings in µs.
	timers map[string][]float64
	lat    []float64            // the current batch's op latencies, µs
	calls  map[string][]float64 // the current batch's call timings, µs
	// sums holds counts summed over the phase: "msgs" and "bytes" from
	// the world's counters, "obs.*" from traced metrics documents.
	sums  map[string]float64
	ranks int          // ranks of the traced metrics documents
	doc   *obs.Metrics // the last traced metrics document
}

// minP95 is the smallest batch whose 95th percentile has ten samples
// beyond it.
const minP95 = 200

func newTally(traced bool) *tally {
	return &tally{traced: traced, timers: map[string][]float64{},
		calls: map[string][]float64{}, sums: map[string]float64{}}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// op records one attempted op.
func (t *tally) op(lat time.Duration, ok bool) {
	t.ops++
	t.lat = append(t.lat, us(lat))
	if !ok {
		t.failed++
	}
}

// fail records n ops lost to an error that left no latency to report.
func (t *tally) fail(n int) {
	t.ops += n
	t.failed += n
}

// time records one harness-side timing of a single public call.
func (t *tally) time(name string, d time.Duration) { t.calls[name] = append(t.calls[name], us(d)) }

// endBatch folds the batch that just ran, whose ops took wall.
func (t *tally) endBatch(wall time.Duration) {
	t.wall += wall
	if len(t.lat) > 0 && wall > 0 {
		t.rate = append(t.rate, float64(len(t.lat))/wall.Seconds())
		t.p50 = append(t.p50, median(t.lat))
		if len(t.lat) >= minP95 {
			t.p95 = append(t.p95, quantile(t.lat, 0.95))
		}
	}
	for name, d := range t.calls {
		t.timers[name] = append(t.timers[name], median(d))
		delete(t.calls, name)
	}
	t.lat = t.lat[:0]
}

func (t *tally) add(name string, v float64) { t.sums[name] += v }

// addSim records the simulated makespan of ops ops.
func (t *tally) addSim(seconds float64, ops int) {
	t.sim += seconds
	t.simOps += ops
}

// per returns a sum per op.
func (t *tally) per(name string) float64 { return ratio(t.sums[name], float64(t.ops)) }

// addObs folds one traced metrics document covering ops ops.
func (t *tally) addObs(m *obs.Metrics, ops int) {
	t.add("obs.msgs", float64(m.TotalMsgs))
	t.add("obs.bytes", float64(m.TotalBytes))
	t.add("obs.imbalance", m.BusyImbalance*float64(ops))
	for _, r := range m.PerRank {
		t.add("obs.recv_wait_ns", float64(r.RecvWaitWallNs))
		t.add(fmt.Sprintf("obs.rank%d.recv_wait_ns", r.Rank), float64(r.RecvWaitWallNs))
	}
	for _, o := range m.Ops {
		t.add("obs."+o.Op+".count", float64(o.Count))
		t.add("obs."+o.Op+".wall_ns", float64(o.WallNs))
		t.add("obs."+o.Op+".bytes", float64(o.Bytes))
	}
	t.ranks, t.doc = m.Ranks, m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Batches are sized to about this much timed work, and to at least their
// workload's quantum: short enough that some batches of a run fall inside
// the quiet spells of a shared host, which last some 10 to 25 ms. On a
// 2-vCPU VM, knn-shuffle's quietest batch spread 20 % over six runs with
// 20 ms batches (five ops each) and 3 % with 5 ms ones (one op), run
// alternately.
const batchTarget = 5 * time.Millisecond

// runPhase runs batches until the budget is spent, or until fixed ops
// have run when fixed is positive.
func runPhase(r runner, w *workload, budget time.Duration, fixed int, traced bool) (*tally, error) {
	t := newTally(traced)
	quantum := max(w.quantum, 1)
	n := quantum
	begin := time.Now()
	for (fixed > 0 && t.ops < fixed) || (fixed <= 0 && time.Since(begin) < budget) {
		// Every batch starts on a freshly set-up system, so the set-up
		// samples spread over the whole run like the ops do. Collecting
		// first lets every set-up start from the same heap state.
		runtime.GC()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := r.up(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		t.setup = append(t.setup, time.Since(start).Seconds())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		wall, err := r.batch(n, t)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		t.rss = append(t.rss, rss)
		t.endBatch(wall)
		t.mallocs += after.Mallocs - before.Mallocs
		t.allocBytes += after.TotalAlloc - before.TotalAlloc
		if fixed <= 0 && t.ops > 0 && t.wall > 0 {
			perOp := t.wall / time.Duration(t.ops)
			n = max(quantum, int(batchTarget/max(perOp, 1))/quantum*quantum)
		}
	}
	if t.ops == 0 {
		return nil, fmt.Errorf("%s: no op completed", w.name)
	}
	return t, nil
}

// measure runs one workload: inputs and oracle, a warm-up, then either
// one untraced phase (end-to-end metrics) or an untraced and a traced
// half (per-layer metrics and the tracing overhead).
func measure(w *workload, sp *spec, cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	r, err := w.open(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	defer r.close()
	if cfg.ops <= 0 {
		if _, err := runPhase(r, w, 0, max(w.quantum, 1), false); err != nil {
			return nil, err
		}
	}
	phase := func(seconds float64, traced bool) (*tally, error) {
		fixed := cfg.ops
		if fixed <= 0 && w.fixedOps != nil {
			fixed = w.fixedOps(seconds)
		}
		return runPhase(r, w, time.Duration(seconds*float64(time.Second)), fixed, traced)
	}
	rep := &report{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Metrics: map[string]metric{},
	}
	var values []namedValue
	if !cfg.trace {
		p, err := phase(float64(cfg.seconds), false)
		if err != nil {
			return nil, err
		}
		rep.Attempted, rep.Failed = p.ops, p.failed
		values = endToEnd(p)
	} else {
		half := float64(cfg.seconds) / 2
		p, err := phase(half, false)
		if err != nil {
			return nil, err
		}
		tr, err := phase(half, true)
		if err != nil {
			return nil, err
		}
		rep.Attempted, rep.Failed = p.ops+tr.ops, p.failed+tr.failed
		rep.doc = tr.doc
		values = layerMetrics(p, tr)
		for name, v := range r.layers(p, tr) {
			values = append(values, namedValue{name: name, value: v, n: p.ops})
		}
	}
	for _, v := range values {
		if err := rep.set(sp, v.name, v.value, v.n, v.spread); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return rep, nil
}

type namedValue struct {
	name   string
	value  float64
	n      int
	spread float64
}

// endToEnd derives the metrics a user of the system sees from one
// untraced phase. Throughput and latency percentiles are the quietest
// batch's, and set-up time the quietest set-up's; n counts the ops (the
// set-ups) of the phase and spread is the spread over its batches (its
// set-ups). A median set-up would not do: set-ups take microseconds, and
// their median lands in whichever of the host's quiet and slow states
// holds more than half the run, so it doubled from one ten-run set to the
// next where the quietest set-up moved by less than a fifth. Peak RSS is the median
// over batches of this process's peak
// in each, set-up included: a single peak over the run lands wherever the
// collector's pacing puts it, and a typical batch's peak moves only with
// the memory a batch needs.
func endToEnd(p *tally) []namedValue {
	vs := []namedValue{
		{name: "ops_per_s", value: quietest(p.rate, true), n: p.ops, spread: spread(p.rate)},
		{name: "latency_p50_us", value: quietest(p.p50, false), n: p.ops, spread: spread(p.p50)},
		{name: "setup_s", value: quietest(p.setup, false), n: len(p.setup), spread: spread(p.setup)},
		{name: "peak_rss_mb", value: median(p.rss), n: len(p.rss), spread: spread(p.rss)},
		{name: "error_rate", value: ratio(float64(p.failed), float64(p.ops)), n: p.ops},
	}
	if len(p.p95) > 0 {
		vs = append(vs, namedValue{name: "latency_p95_us", value: quietest(p.p95, false), n: p.ops, spread: spread(p.p95)})
	}
	if p.simOps > 0 {
		vs = append(vs, namedValue{name: "sim_makespan_us", value: 1e6 * p.sim / float64(p.simOps), n: p.simOps})
	}
	return vs
}

// layerMetrics derives the per-layer metrics every workload shares: the
// Go runtime's allocations and the tracing overhead, plus the cluster and
// net device counters of workloads that have them.
func layerMetrics(p, tr *tally) []namedValue {
	v := map[string]float64{
		"go.allocs_per_op":      ratio(float64(p.mallocs), float64(p.ops)),
		"go.alloc_bytes_per_op": ratio(float64(p.allocBytes), float64(p.ops)),
		"obs.overhead_ratio":    ratio(quietest(tr.rate, true), quietest(p.rate, true)),
	}
	msgs, bytes := p.per("msgs"), p.per("bytes")
	if msgs == 0 {
		msgs, bytes = tr.per("obs.msgs"), tr.per("obs.bytes")
	}
	if msgs > 0 {
		v["cluster.msgs_per_op"], v["cluster.bytes_per_op"] = msgs, bytes
	}
	if tr.ranks > 0 {
		v["cluster.recv_wait_ms_per_op"] = tr.per("obs.recv_wait_ns") / float64(tr.ranks) / 1e6
		v["cluster.busy_imbalance"] = tr.per("obs.imbalance")
	}
	if tx := tr.sums["obs.net.tx.count"]; tx > 0 {
		v["net.tx_ns_per_frame"] = tr.sums["obs.net.tx.wall_ns"] / tx
		v["net.rx_decode_ns_per_frame"] = ratio(tr.sums["obs.net.rx.wall_ns"], tr.sums["obs.net.rx.count"])
		v["net.tx_frames_per_op"] = tr.per("obs.net.tx.count")
		v["net.wire_to_payload_bytes"] = ratio(tr.sums["obs.net.tx.bytes"], tr.sums["obs.bytes"])
	}
	var out []namedValue
	for name, x := range v {
		out = append(out, namedValue{name: name, value: x, n: p.ops})
	}
	return out
}

// resetPeakRSS sets this process's peak resident set back to its current
// one (Linux, proc(5) clear_refs).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is this process's peak resident set since the last reset, in
// MB: the VmHWM line of /proc/self/status.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("read peak RSS: no VmHWM in /proc/self/status")
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile of xs by linear interpolation (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quietest returns the quietest batch's value of a per-batch series: the
// lowest time, or with higher the highest rate (0 when empty). A shared
// host's interference only ever adds time, and its slow spells last from
// a fraction of a second to minutes, so the quietest batch moves far less
// from run to run than any average — the minimum estimator of Chen and
// Revels, "Robust benchmarking in noisy environments" (2016).
func quietest(xs []float64, higher bool) float64 {
	switch {
	case len(xs) == 0:
		return 0
	case higher:
		return slices.Max(xs)
	}
	return slices.Min(xs)
}

// quartiles returns the first and third quartiles of xs by the exclusive
// method of Python's statistics.quantiles(xs, n=4), the statistic this
// benchmark's spreads are judged by. xs needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles of xs as a share of their
// median (0 for fewer than two values).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(median(xs)))
}
