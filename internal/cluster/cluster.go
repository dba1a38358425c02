// Package cluster is an in-process message-passing runtime that stands in
// for MPI in the paper's distributed-memory assignments. A World of P
// ranks runs one goroutine per rank; each rank has private state and
// communicates only through typed point-to-point messages and MPI-style
// collectives (Barrier, Bcast, Scatter, Gather, Allgather, Reduce,
// Allreduce, Alltoall, Scan).
//
// Besides real concurrency, the runtime maintains a deterministic
// performance model: every message advances per-rank simulated clocks by
// alpha + beta*bytes (latency plus inverse bandwidth), and the collectives
// are built from binomial trees of point-to-point messages so their
// simulated cost has the familiar O(log P) shape. This lets the
// communication-cost experiments in the paper reproduce on any host,
// including single-core ones, and makes message/byte counting exact.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// AnySource matches a message from any rank in Recv.
const AnySource = -1

// AnyTag matches a message with any tag in Recv.
const AnyTag = -1

// Options configures a World's cost model and debugging aids.
type Options struct {
	// Latency is the simulated per-message cost in seconds (alpha).
	Latency float64
	// ByteTime is the simulated per-byte cost in seconds (beta, the
	// inverse bandwidth).
	ByteTime float64
	// Verify enables the collective-sequence verifier: every collective
	// stamps its op and call site into the point-to-point messages it is
	// built from, and every receive cross-checks the stamp. A mismatched
	// collective (rank 2 in Allreduce while rank 5 is in Barrier) then
	// panics with a diagnostic naming both ops, ranks and call sites
	// instead of deadlocking or corrupting payloads. Verify also bounds
	// every blocking receive by VerifyTimeout; on expiry the world is
	// declared deadlocked and every rank's pending state is dumped.
	Verify bool
	// VerifyTimeout is the per-receive deadline used when Verify is on
	// (0 means 5s). Set it well above the longest legitimate compute
	// phase between communications.
	VerifyTimeout time.Duration
	// BaselineCollectives forces the simple reference algorithms for
	// every collective (binomial reduce+bcast Allreduce, linear
	// Gather/Scatter/Allgather, AnySource Alltoall) instead of the
	// optimized O(log P) ones. Property tests use it as the oracle the
	// fast paths must match; it is also the fallback the fast paths take
	// on shapes they do not cover (see docs/substrates.md).
	BaselineCollectives bool
}

// DefaultOptions models a commodity cluster interconnect: 1 microsecond
// latency and 10 GB/s bandwidth.
func DefaultOptions() Options {
	return Options{Latency: 1e-6, ByteTime: 1e-10}
}

// VerifyOptions is DefaultOptions with the collective-sequence verifier
// switched on — the mode to grade student SPMD code under.
func VerifyOptions() Options {
	o := DefaultOptions()
	o.Verify = true
	return o
}

type message struct {
	src, tag int
	payload  any
	bytes    int
	arrive   float64 // sender's simulated clock when the message is available
	seq      uint64  // per-mailbox arrival stamp; orders wildcard matching
	op, site string  // Verify mode: collective op + call site that produced this message
	// Wire-level observability, stamped by the net device's reader: frame
	// bytes on the wire (0 on the in-process device — also the "no wire"
	// sentinel) and the frame decode wall time (0 unless a trace was attached
	// when the frame was decoded). finishRecv folds them into the recorder's
	// net.rx aggregate on the rank's own goroutine.
	wireB int64
	decNs int64
}

// bucket is a FIFO deque of pending messages from one source rank, in
// arrival order. head indexes the oldest live entry; vacated slots are
// zeroed so delivered payloads are not retained past delivery.
type bucket struct {
	items []message
	head  int
}

func (b *bucket) empty() bool { return b.head == len(b.items) }

func (b *bucket) push(msg message) {
	// Reclaim the dead prefix once it dominates the backing array, so a
	// long-lived mailbox doesn't grow without bound.
	if b.head > 16 && b.head*2 >= len(b.items) {
		n := copy(b.items, b.items[b.head:])
		clearTail(b.items[n:])
		b.items = b.items[:n]
		b.head = 0
	}
	b.items = append(b.items, msg)
}

// removeAt deletes the message at absolute index i (head <= i < len),
// zeroing the vacated slot.
func (b *bucket) removeAt(i int) {
	if i == b.head {
		b.items[i] = message{}
		b.head++
		if b.empty() {
			b.items = b.items[:0]
			b.head = 0
		}
		return
	}
	copy(b.items[i:], b.items[i+1:])
	b.items[len(b.items)-1] = message{}
	b.items = b.items[:len(b.items)-1]
}

func clearTail(ms []message) {
	for i := range ms {
		ms[i] = message{}
	}
}

// mailbox holds pending messages for one rank, indexed by source rank so
// the typical Recv(src, tag) match is O(1) (head of the source's FIFO
// bucket) instead of a linear scan of everything pending. In Verify mode
// it also mirrors the rank's communication state (what it is blocked on,
// which collective it is inside) so the deadlock dump can read a
// consistent snapshot from another goroutine.
type mailbox struct {
	mu       sync.Mutex
	cond     *sync.Cond
	bySrc    []bucket // indexed by sender rank
	nPending int
	seq      uint64 // next arrival stamp
	closed   bool
	// peerDown marks sources whose transport link is gone (net device
	// only: the reader goroutine for that peer saw the connection close or
	// reset). A receive blocked on a down source fails immediately with a
	// dead-peer diagnosis instead of hanging until the Verify timeout.
	peerDown []error

	waitActive bool // a take is currently blocked
	waitSrc    int  // the (src, tag) that take is blocked on
	waitTag    int
	opInfo     string // current collective "Op @ site" ("" between collectives)
	collSeq    int    // collective sequence number at the last beginColl
}

func newMailbox(size int) *mailbox {
	m := &mailbox{bySrc: make([]bucket, size)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(msg message) {
	m.mu.Lock()
	msg.seq = m.seq
	m.seq++
	m.bySrc[msg.src].push(msg)
	m.nPending++
	// Targeted wakeup: only signal a blocked take whose (src, tag)
	// predicate this message can satisfy. Non-matching puts leave the
	// waiter parked, so a rank blocked on one peer is not woken (and made
	// to rescan) by every unrelated arrival. The mailbox has at most one
	// waiter — its owning rank — so Signal suffices.
	wake := m.waitActive &&
		(m.waitSrc == AnySource || m.waitSrc == msg.src) &&
		tagMatches(m.waitTag, msg.tag)
	m.mu.Unlock()
	if wake {
		m.cond.Signal()
	}
}

// peek locates the pending message Recv(src, tag) would deliver next,
// without removing it, returning the owning bucket and absolute index.
// For a concrete src it scans only that source's bucket (the head in the
// typical in-order case); for AnySource it finds the earliest-arrived
// match across buckets, preserving the previous global arrival-order
// semantics. peek is the single matching scan: match (and so Recv and
// TryRecv) and Probe/ProbeNext all go through it, so a probe can never
// name a different "next message" than the receive that follows it.
// Caller holds m.mu.
func (m *mailbox) peek(src, tag int) (bkt, idx int, ok bool) {
	if m.nPending == 0 {
		return 0, 0, false
	}
	if src != AnySource {
		b := &m.bySrc[src]
		for i := b.head; i < len(b.items); i++ {
			if tagMatches(tag, b.items[i].tag) {
				return src, i, true
			}
		}
		return 0, 0, false
	}
	bestBucket, bestIdx := -1, -1
	var bestSeq uint64
	for s := range m.bySrc {
		b := &m.bySrc[s]
		for i := b.head; i < len(b.items); i++ {
			if tagMatches(tag, b.items[i].tag) {
				if bestBucket < 0 || b.items[i].seq < bestSeq {
					bestBucket, bestIdx, bestSeq = s, i, b.items[i].seq
				}
				break // later entries in this bucket arrived later
			}
		}
	}
	if bestBucket < 0 {
		return 0, 0, false
	}
	return bestBucket, bestIdx, true
}

// match finds the matching pending message, if any, copies it into out
// and removes it. Caller holds m.mu.
func (m *mailbox) match(src, tag int, out *message) bool {
	bkt, idx, ok := m.peek(src, tag)
	if !ok {
		return false
	}
	b := &m.bySrc[bkt]
	*out = b.items[idx]
	b.removeAt(idx)
	m.nPending--
	return true
}

// take blocks until a message matching (src, tag) is pending and moves it
// into out, preserving FIFO order per (src, tag) pair. st is the
// receiving rank's state; in Verify mode the wait is bounded by the
// world's VerifyTimeout, after which a deadlock dump of every rank is
// returned as the error.
func (m *mailbox) take(src, tag int, st *rankState, out *message) error {
	timeout := st.world.verifyTimeout()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.waitActive, m.waitSrc, m.waitTag = true, src, tag
	defer func() { m.waitActive = false }()

	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		timer := time.AfterFunc(timeout, func() {
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
		})
		defer timer.Stop()
	}
	for {
		if m.match(src, tag, out) {
			return nil
		}
		if m.closed {
			return fmt.Errorf("%w while waiting for src=%d tag=%d", errWorldAborted, src, tag)
		}
		if err := m.peerDownErr(src); err != nil {
			// A dead peer is a different diagnosis than a deadlock: the
			// message this rank is waiting for can never arrive because the
			// process that would send it is gone. Rendering the diagnosis
			// re-reads this mailbox (downPeers), so drop our lock first.
			m.mu.Unlock()
			derr := st.world.deadPeerError(st.worldRank, src, tag, err)
			m.mu.Lock()
			return derr
		}
		if timeout > 0 && !time.Now().Before(deadline) {
			// Drop our own lock before walking every rank's mailbox so two
			// concurrent dumpers can never hold-and-wait on each other.
			m.mu.Unlock()
			dump := st.world.deadlockDump(st.worldRank, src, tag, timeout)
			m.mu.Lock()
			return errors.New(dump)
		}
		m.cond.Wait()
	}
}

// errWorldAborted marks the cascade failure a rank sees when some other
// rank's panic closed the world under it. Run reports the root-cause
// panic in preference to these.
var errWorldAborted = errors.New("cluster: world aborted")

// abortPanic wraps a cascade failure so Run's recover can tell it apart
// from a root-cause panic.
type abortPanic struct{ msg string }

// tagMatches applies receive matching: AnyTag is a wildcard over the
// world's user tags only — it never matches the reserved negative tag
// spaces that collectives and groups use, so a wildcard point-to-point
// receive can never steal in-flight collective traffic from a rank that
// ran ahead.
func tagMatches(want, got int) bool {
	if want == AnyTag {
		return got >= 0
	}
	return want == got
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cond.Broadcast()
}

// markPeerDown records that the transport link to src is gone (net device
// reader goroutines call it on connection close/reset) and wakes the
// owning rank so a blocked receive can fail with a dead-peer diagnosis.
func (m *mailbox) markPeerDown(src int, err error) {
	m.mu.Lock()
	if m.peerDown == nil {
		m.peerDown = make([]error, len(m.bySrc))
	}
	if m.peerDown[src] == nil {
		m.peerDown[src] = err
	}
	m.mu.Unlock()
	m.cond.Broadcast()
}

// peerDownErr reports whether a receive on (src, tag) can still be
// satisfied. A concrete down source fails immediately; an AnySource wait
// fails only when every peer link is down and nothing is pending — while
// one live link remains, the message could still come. Caller holds m.mu.
func (m *mailbox) peerDownErr(src int) error {
	if m.peerDown == nil {
		return nil
	}
	if src != AnySource {
		return m.peerDown[src]
	}
	if m.nPending > 0 {
		return nil
	}
	var first error
	for _, err := range m.peerDown {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
	}
	// peerDown has no entry for the local rank itself, so "all remote
	// peers down" is len-1 non-nil entries.
	n := 0
	for _, err := range m.peerDown {
		if err != nil {
			n++
		}
	}
	if n >= len(m.peerDown)-1 && first != nil {
		return first
	}
	return nil
}

// World is a set of ranks that can run SPMD programs. With the default
// goroutine device every rank lives in this process; on a net device the
// World is one member of a multi-process world and only the local rank's
// mailbox and Comm exist here.
type World struct {
	size  int
	opts  Options
	boxes []*mailbox // net device: only boxes[local] is non-nil
	comms []*Comm    // net device: only comms[local] is non-nil
	dev   Device
	local int // local rank on a net device; -1 = all ranks in-process
}

// NewWorld creates a world of size ranks with the default cost model.
func NewWorld(size int) *World { return NewWorldOpts(size, DefaultOptions()) }

// NewWorldOpts creates a world of size ranks with an explicit cost model.
func NewWorldOpts(size int, opts Options) *World {
	if size < 1 {
		panic("cluster: world size must be >= 1")
	}
	w := &World{size: size, opts: opts, local: -1}
	w.dev = goroutineDevice{w}
	w.boxes = make([]*mailbox, size)
	w.comms = make([]*Comm, size)
	for r := 0; r < size; r++ {
		w.boxes[r] = newMailbox(size)
	}
	for r := 0; r < size; r++ {
		w.comms[r] = newWorldComm(w, r)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Launched reports whether this World is one process of a multi-process
// world (a net device joined via `peachy launch` or NewNetWorld). False
// for the default in-process goroutine device.
func (w *World) Launched() bool { return w.local >= 0 }

// LocalRank returns the rank this process runs on a net device, or -1
// when every rank is in-process.
func (w *World) LocalRank() int { return w.local }

// Lead reports whether this process should own root-rank duties that
// must happen exactly once per world — printing results, writing output
// files. True in-process (the whole world is here) and on rank 0 of a
// multi-process world.
func (w *World) Lead() bool { return w.local <= 0 }

// Device names the transport the world routes messages over
// ("goroutine", "net/unix", "net/tcp") — diagnostics and the live
// /healthz document use it.
func (w *World) Device() string { return w.dev.name() }

// ObsInfo describes this process for the live observability endpoint's
// /healthz document (obs.CLI.Serve's second argument).
func (w *World) ObsInfo() obs.ServerInfo {
	return obs.ServerInfo{Rank: w.local, World: w.size, Device: w.dev.name()}
}

// Close tears down the transport. A no-op for the in-process device; on
// a net device it closes every peer connection (remote ranks blocked on
// this process then fail fast with a dead-peer diagnosis rather than
// hanging). Exhibits should defer it after OpenWorld.
func (w *World) Close() error { return w.dev.close() }

// Observe attaches a fresh per-rank trace to the world and returns it.
// Every message, receive wait and collective from here on is recorded
// into the trace's lock-free per-rank buffers; export with
// Trace.WriteChrome / WriteMetrics / WriteSummary after Run returns.
// Call before Run (ranks must be quiescent); calling again replaces the
// previous trace. With no trace attached the runtime's only overhead is
// one nil check per instrumented operation.
func (w *World) Observe() *obs.Trace {
	t := obs.NewTrace(w.size)
	for r, c := range w.comms {
		if c != nil {
			c.rec = t.Rank(r)
		}
	}
	if d, ok := w.dev.(*netDevice); ok {
		d.traced.Store(true) // its reader goroutines time decodes from now on
	}
	return t
}

// Run executes f once per rank, concurrently, and blocks until every rank
// returns. A panic in any rank aborts the world (unblocking ranks stuck in
// Recv) and is reported as an error. Root-cause panics win over the
// "world aborted" cascade errors other ranks see as a consequence, so the
// diagnostic from, e.g., a Verify-mode collective mismatch is never
// masked by a bystander rank failing first in rank order.
func (w *World) Run(f func(c *Comm)) error {
	if w.local >= 0 {
		return w.runLocal(f)
	}
	var wg sync.WaitGroup
	wg.Add(w.size)
	errs := make([]error, w.size)
	cascade := make([]bool, w.size)
	for r := 0; r < w.size; r++ {
		go func(c *Comm) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if ap, ok := p.(abortPanic); ok {
						errs[c.rank] = fmt.Errorf("cluster: rank %d panicked: %v", c.rank, ap.msg)
						cascade[c.rank] = true
					} else {
						errs[c.rank] = fmt.Errorf("cluster: rank %d panicked: %v", c.rank, p)
					}
					for _, b := range w.boxes {
						b.close()
					}
				}
			}()
			f(c)
		}(w.comms[r])
	}
	wg.Wait()
	var fallback error
	for r, err := range errs {
		if err == nil {
			continue
		}
		if !cascade[r] {
			return err
		}
		if fallback == nil {
			fallback = err
		}
	}
	return fallback
}

// runLocal is Run on a net device: this process holds exactly one rank,
// its peers run the same f in their own processes. A panic tears down the
// transport so remote ranks blocked on this one fail fast with a
// dead-peer diagnosis instead of hanging until their Verify timeout.
func (w *World) runLocal(f func(c *Comm)) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if ap, ok := p.(abortPanic); ok {
				err = fmt.Errorf("cluster: rank %d panicked: %v", w.local, ap.msg)
			} else {
				err = fmt.Errorf("cluster: rank %d panicked: %v", w.local, p)
			}
			w.boxes[w.local].close()
			w.dev.close()
		}
	}()
	f(w.comms[w.local])
	return nil
}

// SimTime returns the maximum simulated clock over all ranks: the modeled
// makespan of everything run so far. On a net device only the local
// rank's clock is visible; Allreduce the value for a global makespan.
func (w *World) SimTime() float64 {
	max := 0.0
	for _, c := range w.comms {
		if c != nil && c.clock > max {
			max = c.clock
		}
	}
	return max
}

// TotalMessages returns the number of point-to-point messages sent
// (collectives count as their constituent messages). On a net device
// only the local rank's counter is visible.
func (w *World) TotalMessages() int64 {
	var n int64
	for _, c := range w.comms {
		if c != nil {
			n += c.msgs
		}
	}
	return n
}

// TotalBytes returns the total payload bytes sent. On a net device only
// the local rank's counter is visible.
func (w *World) TotalBytes() int64 {
	var n int64
	for _, c := range w.comms {
		if c != nil {
			n += c.bytes
		}
	}
	return n
}

// ResetStats zeroes clocks and counters on every rank. Call between
// experiment phases; ranks must be quiescent.
func (w *World) ResetStats() {
	for _, c := range w.comms {
		if c != nil {
			c.clock, c.msgs, c.bytes = 0, 0, 0
		}
	}
}

// rankState is one rank's runtime state: its simulated clock, counters,
// trace recorder and in-flight collective. The world's Comm and every
// group Comm on the rank point to the same rankState, so group traffic
// advances the same clock and lands in the same trace as world traffic.
type rankState struct {
	world     *World
	worldRank int

	clock float64 // simulated seconds
	msgs  int64
	bytes int64

	// rec is the rank's trace recorder (nil = observability off; every
	// obs call site guards on that, so the disabled cost is one branch).
	rec *obs.Recorder
	// obsOp/obsRoot/obsSimStart/obsWallStart hold the outermost in-flight
	// collective between beginColl and endColl.
	obsOp        string
	obsRoot      int
	obsSimStart  float64
	obsWallStart int64

	// Verify mode: the collective this rank is currently inside ("" while
	// in user code or point-to-point calls). Owner-goroutine only; the
	// mailbox mirrors it for cross-goroutine dump readers. collDepth
	// tracks nesting (e.g. Split's internal Allgather) so the outermost
	// op name wins.
	curOp, curSite string
	collDepth      int

	lastNS int // highest tag namespace this rank has taken part in; see Split

	// spare is the snapshot the rank's last recursive-doubling Allreduce
	// made after its final round. No other rank has it, so it is dead,
	// and the next such call copies its first snapshot into it (see
	// rdAllreduce). It stays boxed, so that send needs no new box.
	spare any
}

// Comm is a communicator: one rank's endpoint into the world, or into a
// group made by Split. It is owned by the rank's goroutine; methods must
// not be called from other goroutines.
type Comm struct {
	*rankState

	rank    int   // this rank's id within the communicator
	ranks   []int // communicator rank -> world rank; nil for the world
	ns      int   // tag namespace: 0 for the world, >= 1 for groups
	collSeq int   // collective matching sequence; see nextCollTag
}

func newWorldComm(w *World, rank int) *Comm {
	return &Comm{rankState: &rankState{world: w, worldRank: rank}, rank: rank}
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int {
	if c.ranks == nil {
		return c.world.size
	}
	return len(c.ranks)
}

// toWorld maps a communicator rank (or AnySource) to a world rank.
func (c *Comm) toWorld(r int) int {
	if c.ranks == nil || r == AnySource {
		return r
	}
	return c.ranks[r]
}

// Clock returns this rank's simulated time in seconds.
func (c *Comm) Clock() float64 { return c.clock }

// AdvanceClock adds simulated compute seconds to this rank's clock. Use it
// to model local work between communication phases.
func (c *Comm) AdvanceClock(seconds float64) { c.clock += seconds }

// Obs returns this rank's trace recorder, or nil when no trace is
// attached. Substrate layers use it to record their own phase spans; all
// obs.Recorder methods are nil-safe, so callers need no guard.
func (c *Comm) Obs() *obs.Recorder { return c.rec }

// send posts payload to communicator rank dst, charged at its byteSize.
// The payload is boxed once, by the call, and the message and its size
// share that box.
func (c *Comm) send(dst, tag int, payload any) {
	c.sendRaw(dst, tag, payload, byteSize(payload))
}

// sendRaw posts a message of the given modeled size to communicator rank
// dst and advances the sender's clock. tag is already folded into the
// communicator's namespace (userTag, nextCollTag). Messages and trace
// events carry world ranks; sendRaw, recvRaw and poll are where a
// communicator's ranks are mapped to them.
func (c *Comm) sendRaw(dst, tag int, payload any, bytes int) {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("cluster: send to invalid rank %d", dst))
	}
	dst = c.toWorld(dst)
	simStart := c.clock
	c.clock += c.world.opts.Latency + c.world.opts.ByteTime*float64(bytes)
	c.msgs++
	c.bytes += int64(bytes)
	if c.rec != nil {
		c.rec.Send(dst, tag, int64(bytes), simStart, c.clock)
	}
	c.world.dev.deliver(dst, message{
		src: c.worldRank, tag: tag, payload: payload, bytes: bytes, arrive: c.clock,
		op: c.curOp, site: c.curSite,
	})
}

// recvRaw blocks for a message from communicator rank src (or AnySource)
// with the folded tag, moves it from the mailbox into msg, and completes
// the receive with finishRecv.
func (c *Comm) recvRaw(src, tag int, msg *message) {
	var wallStart int64
	simStart := c.clock
	if c.rec != nil {
		wallStart = c.rec.Now()
	}
	if err := c.world.boxes[c.worldRank].take(c.toWorld(src), tag, c.rankState, msg); err != nil {
		if errors.Is(err, errWorldAborted) {
			panic(abortPanic{err.Error()})
		}
		panic(err.Error())
	}
	c.finishRecv(msg, src, simStart, wallStart)
}

// finishRecv completes a matched receive, blocking (recvRaw) or not
// (TryRecv): in Verify mode it cross-checks the collective stamp on the
// message against the collective this rank is inside, advances the
// receiver's clock to at least the message's availability time, records
// the receive, and rewrites msg.src from a world rank to a rank of c.
// src is the source the receive asked for.
func (c *Comm) finishRecv(msg *message, src int, simStart float64, wallStart int64) {
	if c.world.opts.Verify {
		c.checkCollStamp(msg)
	}
	if msg.arrive > c.clock {
		c.clock = msg.arrive
	}
	if c.rec != nil {
		c.rec.Recv(msg.src, msg.tag, int64(msg.bytes), simStart, c.clock, wallStart)
		if msg.wireB > 0 {
			// Wire-level aggregate for messages that crossed a socket: frame
			// bytes and frame decode time, stamped by the net device's reader
			// goroutine, folded into the recorder here on the rank's own.
			c.rec.WireSpan("net.rx", msg.wireB, msg.decNs)
		}
	}
	msg.src = c.fromWorld(msg.src, src)
}

// fromWorld maps the world rank w that a receive on (src, ...) matched
// back to a rank of c. Only an AnySource receive on a group has to search.
func (c *Comm) fromWorld(w, src int) int {
	if c.ranks == nil {
		return w
	}
	if src != AnySource {
		return src
	}
	for r, x := range c.ranks {
		if x == w {
			return r
		}
	}
	panic(fmt.Sprintf("cluster: world rank %d is not in the group", w))
}

// Send delivers v to rank dst with the given tag. It does not block on the
// receiver (eager/buffered semantics).
func Send[T any](c *Comm, dst, tag int, v T) {
	c.send(dst, c.userTag(tag), v)
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. src may be AnySource and tag may be AnyTag (AnyTag
// on the world only). The payload must have been sent with the same type T.
func Recv[T any](c *Comm, src, tag int) T {
	var msg message
	c.recvRaw(src, c.userTag(tag), &msg)
	v, ok := msg.payload.(T)
	if !ok {
		panic(fmt.Sprintf("cluster: rank %d Recv type mismatch: got %T", c.rank, msg.payload))
	}
	return v
}

// RecvFrom is Recv that additionally reports the sending rank; useful with
// AnySource (the dynamic task farm uses it).
func RecvFrom[T any](c *Comm, src, tag int) (T, int) {
	var msg message
	c.recvRaw(src, c.userTag(tag), &msg)
	v, ok := msg.payload.(T)
	if !ok {
		panic(fmt.Sprintf("cluster: rank %d RecvFrom type mismatch: got %T", c.rank, msg.payload))
	}
	return v, msg.src
}

// byteSize estimates the wire size of a payload for the cost model.
func byteSize(v any) int {
	switch x := v.(type) {
	case nil, struct{}:
		return 0
	case bool, int8, uint8:
		return 1
	case int16, uint16:
		return 2
	case int32, uint32, float32:
		return 4
	case int, int64, uint, uint64, uintptr, float64, complex64:
		return 8
	case complex128:
		return 16
	case string:
		return len(x)
	case []byte:
		return len(x)
	case []int:
		return 8 * len(x)
	case []int64:
		return 8 * len(x)
	case []float64:
		return 8 * len(x)
	case []float32:
		return 4 * len(x)
	case []int32:
		return 4 * len(x)
	case []uint64:
		return 8 * len(x)
	case []bool:
		return len(x)
	case [][]float64:
		n := 0
		for _, row := range x {
			n += 8 + 8*len(row) // length prefix + elements
		}
		return n
	case []string:
		n := 0
		for _, s := range x {
			n += len(s) + 8
		}
		return n
	case Sizer:
		return x.WireSize()
	default:
		// Unknown payloads get a flat estimate; implement Sizer for
		// anything whose size matters to an experiment.
		return 64
	}
}

// Sizer lets custom payload types report their wire size to the cost model.
type Sizer interface {
	WireSize() int
}
