package cluster

import (
	"math/rand"
	"testing"
)

// TestWildcardProbeSeqOrder is the regression test for the wildcard
// ordering bug: the probe scan used to walk bySrc buckets in rank order
// while Recv(AnySource) matches in global seq (arrival) order, so with
// messages pending from two sources a probe could name the lower rank's
// later-arrived message while the receive delivered the higher rank's
// earlier one. Both must report the earlier arrival, whichever rank it
// came from.
func TestWildcardProbeSeqOrder(t *testing.T) {
	// Interleave two sources directly at the mailbox so arrival order is
	// deterministic: rank 2 sends first (earlier seq), rank 0 second.
	// A rank-ordered scan finds rank 0's message first — the bug.
	w := NewWorld(3)
	box := w.boxes[1]
	box.put(message{src: 2, tag: 5, payload: 20, bytes: 8})
	box.put(message{src: 0, tag: 5, payload: 10, bytes: 8})
	c := w.comms[1]

	src, tag, ok := c.ProbeNext(AnySource, AnyTag)
	if !ok {
		t.Fatal("ProbeNext found nothing with two messages pending")
	}
	if src != 2 || tag != 5 {
		t.Fatalf("ProbeNext named (src=%d tag=%d), want the earlier arrival (src=2 tag=5)", src, tag)
	}
	got, gotSrc := RecvFrom[int](c, AnySource, AnyTag)
	if gotSrc != src {
		t.Fatalf("Probe/Recv disagree: probe named src=%d, Recv delivered src=%d", src, gotSrc)
	}
	if got != 20 {
		t.Fatalf("Recv delivered %d, want 20 (the earlier arrival)", got)
	}
	// And the remaining message follows in order.
	if src, _, _ := c.ProbeNext(AnySource, AnyTag); src != 0 {
		t.Fatalf("second ProbeNext named src=%d, want 0", src)
	}
	if _, gotSrc := RecvFrom[int](c, AnySource, AnyTag); gotSrc != 0 {
		t.Fatalf("second Recv delivered src=%d, want 0", gotSrc)
	}
}

// TestWildcardProbeSeqOrderEndToEnd replays the same interleaving through
// real Sends, using a tag handshake to force the arrival order: rank 1
// must see rank 2's message arrive before rank 0's even though a
// rank-ordered scan would visit rank 0's bucket first.
func TestWildcardProbeSeqOrderEndToEnd(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) {
		switch c.Rank() {
		case 2:
			Send(c, 1, 5, 20)
			Send(c, 0, 9, struct{}{}) // rank 2's payload is en route / delivered
		case 0:
			Recv[struct{}](c, 2, 9)
			Send(c, 1, 5, 10)
		case 1:
			// Wait until both are pending so the probe has a real choice.
			for !c.Probe(0, 5) || !c.Probe(2, 5) {
			}
			src, _, ok := c.ProbeNext(AnySource, AnyTag)
			if !ok || src != 2 {
				panic("wildcard probe must name rank 2's earlier arrival")
			}
			if v, from := RecvFrom[int](c, AnySource, AnyTag); from != 2 || v != 20 {
				panic("wildcard Recv must deliver rank 2's earlier arrival")
			}
			if v, from := RecvFrom[int](c, AnySource, AnyTag); from != 0 || v != 10 {
				panic("second wildcard Recv must deliver rank 0's message")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBucketPropertyRandomOps drives the per-source FIFO bucket through
// long random interleavings of push, head pop, and middle removal —
// including the head-reclaim compaction push triggers — against a plain
// slice model. After every operation the live window must match the
// model exactly and every dead slot must be zeroed.
func TestBucketPropertyRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var b bucket
		var model []message
		next := 1
		for op := 0; op < 2000; op++ {
			switch {
			case len(model) == 0 || rng.Intn(100) < 45:
				m := mkMsg(next)
				next++
				b.push(m)
				model = append(model, m)
			case rng.Intn(100) < 70:
				// Head pop: the Recv(src, tag) fast path.
				b.removeAt(b.head)
				model = model[1:]
			default:
				// Middle removal: a tag-selective or out-of-order match.
				i := rng.Intn(len(model))
				b.removeAt(b.head + i)
				model = append(model[:i:i], model[i+1:]...)
			}
			live := b.items[b.head:]
			if len(live) != len(model) {
				t.Fatalf("seed %d op %d: %d live items, model has %d", seed, op, len(live), len(model))
			}
			for i := range model {
				if live[i].tag != model[i].tag {
					t.Fatalf("seed %d op %d: item %d has tag %d, model says %d",
						seed, op, i, live[i].tag, model[i].tag)
				}
			}
			if !deadSlotsClean(&b) {
				t.Fatalf("seed %d op %d: dead slot retains a message (head=%d len=%d cap=%d)",
					seed, op, b.head, len(b.items), cap(b.items))
			}
		}
	}
}
