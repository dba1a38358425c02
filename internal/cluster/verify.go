package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// This file implements the Verify-mode runtime verifier: the dynamic
// counterpart to peachyvet's static `collective` rule. MPI correctness
// tools (MUST, Marmot) do the same for real MPI programs — a mismatched
// collective is turned from a silent deadlock or payload corruption into
// an immediate, named diagnostic.
//
// Mechanism: every collective brackets its communication with
// beginColl/endColl, which record the op name and the user call site on
// the rank. sendRaw stamps both into each point-to-point message the
// collective is built from; recvRaw cross-checks the stamp against the
// receiving rank's current op. Because collective tags are consumed from
// a per-rank sequence, two ranks that disagree about the collective
// sequence produce tree messages with the *same* tag but *different*
// stamps — exactly the case the check catches. Disagreements that never
// exchange a message (both sides blocked receiving) are caught by the
// VerifyTimeout deadlock dump instead.

// verifyTimeout returns the bounded-receive deadline (0 = unbounded).
func (w *World) verifyTimeout() time.Duration {
	if !w.opts.Verify {
		return 0
	}
	if w.opts.VerifyTimeout > 0 {
		return w.opts.VerifyTimeout
	}
	return 5 * time.Second
}

// beginColl marks this rank as inside the named collective: the trace
// recorder (when attached) stamps the span start, and in Verify mode the
// op and user call site are mirrored into the rank's mailbox for the
// deadlock dump. root is the collective's root rank (-1 for rootless
// collectives). Nesting (e.g. Split's internal Allgather) records and
// verifies only the outermost op.
func (c *Comm) beginColl(op string, root int) {
	c.collDepth++
	if c.collDepth > 1 {
		return // nested: outermost op wins
	}
	if c.rec != nil {
		c.obsOp, c.obsRoot = op, c.toWorld(root) // trace events are in world ranks
		c.obsSimStart = c.clock
		c.obsWallStart = c.rec.Now()
	}
	if !c.world.opts.Verify {
		return
	}
	c.curOp, c.curSite = op, callerSite()
	b := c.world.boxes[c.worldRank]
	b.mu.Lock()
	b.opInfo = op + " @ " + c.curSite
	b.collSeq = c.collSeq
	b.mu.Unlock()
}

// endColl marks the rank as back in user code, closing the trace span
// opened by beginColl.
func (c *Comm) endColl() {
	c.collDepth--
	if c.collDepth > 0 {
		return
	}
	if c.rec != nil {
		c.rec.Collective(c.obsOp, c.obsRoot, c.obsSimStart, c.clock, c.obsWallStart)
		c.obsOp = ""
	}
	if !c.world.opts.Verify {
		return
	}
	c.curOp, c.curSite = "", ""
	b := c.world.boxes[c.worldRank]
	b.mu.Lock()
	b.opInfo = ""
	b.mu.Unlock()
}

// checkCollStamp panics when the collective stamp on a received message
// disagrees with the collective this rank is inside. It runs before
// finishRecv maps msg.src, so the diagnostic names world ranks.
func (c *Comm) checkCollStamp(msg *message) {
	if msg.op == c.curOp {
		return
	}
	switch {
	case c.curOp == "":
		panic(fmt.Sprintf(
			"cluster: collective mismatch: rank %d was in a point-to-point receive but matched %s traffic sent by rank %d at %s — rank %d skipped (or has not yet reached) that collective",
			c.worldRank, msg.op, msg.src, msg.site, c.worldRank))
	case msg.op == "":
		panic(fmt.Sprintf(
			"cluster: collective mismatch: rank %d entered %s at %s but received point-to-point traffic from rank %d (tag %d) — rank %d is not in the collective",
			c.worldRank, c.curOp, c.curSite, msg.src, msg.tag, msg.src))
	default:
		panic(fmt.Sprintf(
			"cluster: collective mismatch: rank %d entered %s at %s, but rank %d entered %s at %s — every rank must call the same collective sequence",
			c.worldRank, c.curOp, c.curSite, msg.src, msg.op, msg.site))
	}
}

// runtimeFiles are this package's non-test sources; callerSite skips
// their frames so diagnostics point at user code.
var runtimeFiles = map[string]bool{
	"cluster.go": true, "collectives.go": true, "split.go": true,
	"probe.go": true, "verify.go": true, "device.go": true, "netdev.go": true,
}

func callerSite() string {
	pc := make([]uintptr, 16)
	n := runtime.Callers(2, pc)
	frames := runtime.CallersFrames(pc[:n])
	for {
		f, more := frames.Next()
		base := filepath.Base(f.File)
		if !runtimeFiles[base] && f.File != "" {
			return fmt.Sprintf("%s:%d", base, f.Line)
		}
		if !more {
			return "unknown"
		}
	}
}

// deadPeerError renders the diagnosis for a receive that can never be
// satisfied because the transport link to the peer is gone — over a real
// device a dead peer looks exactly like a deadlocked one (a receive that
// never completes), so the runtime distinguishes them explicitly: a
// closed/reset connection is reported as a crashed or exited process, not
// as a suspected communication cycle, and an undecodable frame as a
// payload the live peer sent, not as either.
func (w *World) deadPeerError(rank, src, tag int, cause error) error {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: rank %d: peer unreachable while waiting for src=%d tag=%d: %v", rank, src, tag, cause)
	if errors.Is(cause, errUndecodable) {
		b.WriteString("\n  the peer is alive but its stream cannot be decoded;")
		b.WriteString("\n  check that every rank runs the same build and registers the same payload types (RegisterWire)")
	} else {
		b.WriteString("\n  this is a dead peer (its process exited or crashed), not a deadlock cycle;")
		b.WriteString("\n  check that rank's own output/exit status for the root cause")
	}
	if down := w.downPeers(); len(down) > 0 {
		fmt.Fprintf(&b, "\n  unreachable ranks: %s", strings.Join(down, ", "))
	}
	return errors.New(b.String())
}

// downPeers lists every rank whose link is down, with its state.
func (w *World) downPeers() []string {
	if w.local < 0 {
		return nil
	}
	box := w.boxes[w.local]
	box.mu.Lock()
	defer box.mu.Unlock()
	var out []string
	for r, err := range box.peerDown {
		if err != nil {
			out = append(out, fmt.Sprintf("rank %d (%s)", r, shortConnState(err)))
		}
	}
	return out
}

func shortConnState(err error) string {
	s := err.Error()
	if i := strings.Index(s, ": "); i >= 0 {
		return s[i+2:]
	}
	return s
}

// deadlockDump renders every rank's communication state. It is called by
// a rank whose bounded receive expired, with no mailbox locks held. On a
// net device only the local rank's mailbox exists; remote ranks are
// described by their transport link state instead, and a closed/reset
// link is called out as a dead peer rather than folded into the generic
// cycle hint.
func (w *World) deadlockDump(rank, src, tag int, waited time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: suspected deadlock: rank %d waited %v for src=%d tag=%d; world state:\n",
		rank, waited, src, tag)
	deadPeers := 0
	for r, box := range w.boxes {
		if box == nil {
			info := w.dev.peerInfo(r)
			if strings.Contains(info, "closed") || strings.Contains(info, "reset") {
				deadPeers++
			}
			fmt.Fprintf(&b, "  rank %d: %s\n", r, info)
			continue
		}
		box.mu.Lock()
		state := "running"
		if box.waitActive {
			state = fmt.Sprintf("blocked on src=%d tag=%d", box.waitSrc, box.waitTag)
		}
		op := box.opInfo
		if op == "" {
			op = "no collective (user code or point-to-point)"
		} else {
			op = fmt.Sprintf("%s (collective #%d)", op, box.collSeq)
		}
		// Render the oldest few pending messages in arrival order by
		// walking the per-source buckets and merging on arrival stamp.
		nPending := box.nPending
		heads := make([]int, len(box.bySrc))
		for s := range box.bySrc {
			heads[s] = box.bySrc[s].head
		}
		var pend []string
		for len(pend) < 3 {
			bestSrc := -1
			var bestSeq uint64
			for s := range box.bySrc {
				bk := &box.bySrc[s]
				if heads[s] < len(bk.items) && (bestSrc < 0 || bk.items[heads[s]].seq < bestSeq) {
					bestSrc, bestSeq = s, bk.items[heads[s]].seq
				}
			}
			if bestSrc < 0 {
				break
			}
			m := box.bySrc[bestSrc].items[heads[bestSrc]]
			heads[bestSrc]++
			desc := fmt.Sprintf("src=%d tag=%d", m.src, m.tag)
			if m.op != "" {
				desc += " op=" + m.op
			}
			pend = append(pend, desc)
		}
		if nPending > len(pend) {
			pend = append(pend, fmt.Sprintf("+%d more", nPending-len(pend)))
		}
		box.mu.Unlock()
		fmt.Fprintf(&b, "  rank %d: %s; in %s; %d pending message(s)", r, state, op, nPending)
		if len(pend) > 0 {
			fmt.Fprintf(&b, " [%s]", strings.Join(pend, ", "))
		}
		b.WriteByte('\n')
	}
	if deadPeers > 0 {
		fmt.Fprintf(&b, "  hint: %d peer connection(s) closed/reset — those ranks' processes exited or crashed; this looks like a hang from here but is peer death, not (necessarily) a communication cycle", deadPeers)
	} else {
		b.WriteString("  hint: a deadlock here usually means mismatched Send/Recv tags or a rank-divergent collective; run `go run ./cmd/peachyvet ./...` on the code")
	}
	return b.String()
}
