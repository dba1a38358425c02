// Package obs is the repository's zero-dependency observability layer:
// per-rank tracing and metrics for the cluster runtime and the substrates
// built on it. The paper's assignments are pedagogically about *seeing*
// parallel behaviour — load imbalance, communication cost shapes, idle
// time — and this package turns the deterministic cost model's single
// numbers into explainable timelines.
//
// A Trace owns one Recorder per rank. Each Recorder is written only by
// its rank's goroutine: an append-only event buffer plus one set of
// counters, each an atomic with that single writer. Ranks never contend
// on a shared structure, and a nil *Recorder is the disabled state — every
// recording method is nil-safe, so instrumented hot paths pay a single
// branch when observability is off. Read the event buffer (Events,
// WriteChrome) only after the instrumented program has finished;
// World.Run's completion is the required happens-before edge. Metrics
// (and WriteMetrics, WriteSummary) read only the atomic counters, so
// they may be called at any time, also while ranks record.
//
// Exporters: WriteChrome emits Chrome trace_event JSON on the simulated
// timeline (one track per rank, deterministic across runs of the same
// program — open in chrome://tracing or Perfetto), WriteMetrics emits a
// flat metrics JSON (per-rank counters plus the rank×rank traffic
// matrix), and WriteSummary prints a terminal digest that flags the top
// imbalance. See docs/observability.md.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// KV is one extra integer annotation on an event (task ids, key counts,
// record counts). A flat int64 keeps recording allocation-free and the
// exporters deterministic.
type KV struct {
	K string
	V int64
}

// Event is one recorded span or instant:
//   - Op names what happened ("Allreduce", "send", "recv", "mr.map", ...).
//   - Peer is the peer or root rank (-1 when not applicable).
//   - Tag and Bytes carry the message-level detail for transport events.
//   - SimStart/SimEnd are seconds on the rank's simulated clock — the
//     deterministic timeline the Chrome exporter draws.
//   - WallStart/WallEnd are nanoseconds since the trace epoch — real time,
//     aggregated into metrics but kept out of the deterministic trace.
type Event struct {
	Rank               int
	Op                 string
	Peer               int
	Tag                int
	Bytes              int64
	SimStart, SimEnd   float64
	WallStart, WallEnd int64
	Instant            bool
	KV                 []KV
}

// Recorder captures one rank's events and counters. It must only be used
// by the goroutine that owns the rank; a nil Recorder discards everything
// at the cost of one branch per call.
//
// The counters are the rank's only books. Each is an atomic written by
// the owning goroutine alone, so Trace.Metrics may load them from any
// goroutine while the rank runs; a load taken mid-event may lag the
// other fields by a count.
type Recorder struct {
	rank   int
	epoch  time.Time
	events []Event
	// sentMsgs/sentBytes index by destination rank: this rank's row of
	// the world's traffic matrix, and the only count of what it sent.
	sentMsgs  []atomic.Int64
	sentBytes []atomic.Int64
	msgsRecv  atomic.Int64
	bytesRecv atomic.Int64
	// recvWaitSim/recvWaitWall accumulate time blocked in receives:
	// simulated seconds the clock jumped forward to a message's arrival,
	// and wall nanoseconds spent in the blocking take.
	recvWaitSim  atomicFloat
	recvWaitWall atomic.Int64
	nEvents      atomic.Int64
	simEnd       atomicFloat  // latest simulated end of any event
	lastProgress atomic.Int64 // wall end of the latest event (Now's scale)
	// ops holds the per-op aggregates, copy-on-write so that readers
	// iterate an immutable slice; opIndex is the writer's lookup into it.
	ops     atomic.Pointer[[]*opRecord]
	opIndex map[string]*opRecord
}

// opRecord aggregates one operation name on one rank (collective
// invocations, substrate phases, wire-level transport ops): duration
// totals, frame bytes (WireSpan only), and log-bucketed duration
// histograms whose fixed boundaries make cross-rank merging exact.
// Every invocation observes wallHist once, so its total is the
// invocation count.
type opRecord struct {
	op       string
	sim      atomicFloat
	wallNs   atomic.Int64
	bytes    atomic.Int64
	simHist  atomicHist
	wallHist atomicHist
}

// atomicFloat is a float64 with a single writer and any number of
// readers.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) add(d float64) { f.bits.Store(math.Float64bits(f.load() + d)) }

// raise stores v if it exceeds the current value.
func (f *atomicFloat) raise(v float64) {
	if v > f.load() {
		f.bits.Store(math.Float64bits(v))
	}
}

// Trace is a whole-program collection of per-rank recorders sharing one
// wall-clock epoch.
type Trace struct {
	epoch time.Time
	recs  []*Recorder
}

// NewTrace creates a trace for a world of the given number of ranks.
func NewTrace(ranks int) *Trace {
	if ranks < 1 {
		ranks = 1
	}
	t := &Trace{epoch: time.Now(), recs: make([]*Recorder, ranks)}
	for r := range t.recs {
		t.recs[r] = &Recorder{
			rank:      r,
			epoch:     t.epoch,
			sentMsgs:  make([]atomic.Int64, ranks),
			sentBytes: make([]atomic.Int64, ranks),
			opIndex:   map[string]*opRecord{},
		}
	}
	return t
}

// Ranks returns the number of ranks the trace covers.
func (t *Trace) Ranks() int { return len(t.recs) }

// Rank returns rank r's recorder.
func (t *Trace) Rank(r int) *Recorder { return t.recs[r] }

// Events returns every recorded event, rank-major in per-rank recording
// order. Call only after the traced program finished.
func (t *Trace) Events() []Event {
	var out []Event
	for _, r := range t.recs {
		out = append(out, r.events...)
	}
	return out
}

// Enabled reports whether the recorder actually records (non-nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Now returns wall nanoseconds since the trace epoch (0 when disabled).
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// Events returns this rank's events in recording order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// record appends ev and publishes it to the counters Metrics reads:
// the event count, the simulated high-water mark and the progress stamp.
func (r *Recorder) record(ev Event) {
	r.events = append(r.events, ev)
	r.nEvents.Add(1)
	r.simEnd.raise(ev.SimEnd)
	r.lastProgress.Store(ev.WallEnd)
}

// Span records a completed span.
func (r *Recorder) Span(op string, peer, tag int, bytes int64, simStart, simEnd float64, wallStart, wallEnd int64, kv ...KV) {
	if r == nil {
		return
	}
	r.record(Event{
		Rank: r.rank, Op: op, Peer: peer, Tag: tag, Bytes: bytes,
		SimStart: simStart, SimEnd: simEnd, WallStart: wallStart, WallEnd: wallEnd,
		KV: kv,
	})
}

// Instant records a zero-duration event at the given simulated time.
func (r *Recorder) Instant(op string, peer, tag int, bytes int64, sim float64, kv ...KV) {
	if r == nil {
		return
	}
	now := r.Now()
	r.record(Event{
		Rank: r.rank, Op: op, Peer: peer, Tag: tag, Bytes: bytes,
		SimStart: sim, SimEnd: sim, WallStart: now, WallEnd: now,
		Instant: true, KV: kv,
	})
}

// Send records one point-to-point send: a span covering the simulated
// α + β·bytes transmission, and the message in this rank's
// traffic-matrix row. dst must be a rank of the trace's world.
func (r *Recorder) Send(dst, tag int, bytes int64, simStart, simEnd float64) {
	if r == nil {
		return
	}
	now := r.Now()
	r.record(Event{
		Rank: r.rank, Op: "send", Peer: dst, Tag: tag, Bytes: bytes,
		SimStart: simStart, SimEnd: simEnd, WallStart: now, WallEnd: now,
	})
	r.sentMsgs[dst].Add(1)
	r.sentBytes[dst].Add(bytes)
}

// Recv records one completed receive: a span from the simulated time the
// rank started waiting to the time the message was available, plus the
// receive-side counters and wait-time accumulation (sim and wall).
func (r *Recorder) Recv(src, tag int, bytes int64, simStart, simEnd float64, wallStart int64) {
	if r == nil {
		return
	}
	now := r.Now()
	r.record(Event{
		Rank: r.rank, Op: "recv", Peer: src, Tag: tag, Bytes: bytes,
		SimStart: simStart, SimEnd: simEnd, WallStart: wallStart, WallEnd: now,
	})
	r.msgsRecv.Add(1)
	r.bytesRecv.Add(bytes)
	r.recvWaitSim.add(simEnd - simStart)
	r.recvWaitWall.Add(now - wallStart)
}

// Collective records a whole collective invocation as a span and
// accumulates the per-op counters. root is -1 for rootless collectives.
func (r *Recorder) Collective(op string, root int, simStart, simEnd float64, wallStart int64) {
	if r == nil {
		return
	}
	now := r.Now()
	r.record(Event{
		Rank: r.rank, Op: op, Peer: root,
		SimStart: simStart, SimEnd: simEnd, WallStart: wallStart, WallEnd: now,
	})
	r.countOp(op, simEnd-simStart, now-wallStart)
}

// WallSpan records a span for substrates with no simulated clock (rdd,
// pipeline, shared-memory solvers): the simulated times are derived from
// wall time since the epoch, so the Chrome sim-timeline still renders a
// meaningful (though host-dependent) picture. startNs is a prior
// Recorder.Now() value.
func (r *Recorder) WallSpan(op string, startNs int64, kv ...KV) {
	if r == nil {
		return
	}
	now := r.Now()
	r.record(Event{
		Rank: r.rank, Op: op, Peer: -1,
		SimStart: float64(startNs) * 1e-9, SimEnd: float64(now) * 1e-9,
		WallStart: startNs, WallEnd: now,
		KV: kv,
	})
	r.countOp(op, float64(now-startNs)*1e-9, now-startNs)
}

// PhaseSpan records a named phase span with explicit simulated bounds
// (substrates that run under a Comm use the rank's clock) and counts it
// in the per-op aggregates.
func (r *Recorder) PhaseSpan(op string, simStart, simEnd float64, wallStart int64, kv ...KV) {
	if r == nil {
		return
	}
	now := r.Now()
	r.record(Event{
		Rank: r.rank, Op: op, Peer: -1,
		SimStart: simStart, SimEnd: simEnd, WallStart: wallStart, WallEnd: now,
		KV: kv,
	})
	r.countOp(op, simEnd-simStart, now-wallStart)
}

// WireSpan accumulates one wire-level transport operation (the net
// device's encode and write of an outgoing frame, or decode of an
// incoming one): invocation count, frame bytes, and the wall-duration
// histogram.
// Unlike the other recording methods it emits no timeline event — wall
// durations are nondeterministic, and the Chrome export must stay a
// pure function of the simulated clocks — so wall-clock-derived values
// are safe by contract here (peachyvet's nondet rule knows this).
func (r *Recorder) WireSpan(op string, bytes, wallNs int64) {
	if r == nil {
		return
	}
	o := r.opFor(op)
	o.wallNs.Add(wallNs)
	o.bytes.Add(bytes)
	o.wallHist.observe(float64(wallNs))
}

func (r *Recorder) countOp(op string, simDur float64, wallDur int64) {
	o := r.opFor(op)
	o.sim.add(simDur)
	o.wallNs.Add(wallDur)
	o.simHist.observe(simDur)
	o.wallHist.observe(float64(wallDur))
}

// opFor returns op's aggregate, creating it on first use. A new record
// is published in a fresh copy of the list, so a reader never sees a
// slice that is being appended to.
func (r *Recorder) opFor(op string) *opRecord {
	o := r.opIndex[op]
	if o == nil {
		o = &opRecord{op: op}
		r.opIndex[op] = o
		old := r.opList()
		list := append(old[:len(old):len(old)], o)
		r.ops.Store(&list)
	}
	return o
}

// opList returns the per-op aggregates in creation order.
func (r *Recorder) opList() []*opRecord {
	if l := r.ops.Load(); l != nil {
		return *l
	}
	return nil
}

// CollectiveOps is the set of cluster collective op names, used by the
// metrics exporter to total "collective invocations" per rank.
var CollectiveOps = map[string]bool{
	"Barrier": true, "Bcast": true, "Reduce": true, "Allreduce": true,
	"Allgather": true, "Gather": true, "Scatter": true, "Alltoall": true,
	"Scan": true,
}
