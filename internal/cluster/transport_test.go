package cluster

import (
	"testing"
)

// slotLive reports whether any slot in the bucket's backing array outside
// the live window [head, len) still holds a non-zero message. Delivered
// payloads must not be retained past delivery, or the mailbox pins every
// message ever sent until the world ends.
func deadSlotsClean(b *bucket) bool {
	all := b.items[:cap(b.items)]
	for i := range all {
		if i >= b.head && i < len(b.items) {
			continue
		}
		m := all[i]
		if m.payload != nil || m.src != 0 || m.tag != 0 || m.bytes != 0 || m.seq != 0 {
			return false
		}
	}
	return true
}

func mkMsg(tag int) message {
	return message{src: 0, tag: tag, payload: []float64{float64(tag)}, bytes: 8}
}

// TestBucketZeroesVacatedSlots drives every removal path of the per-source
// FIFO bucket — head pop, middle removal, drain-to-empty and the push-time
// compaction — and checks that no dead slot keeps a payload alive.
func TestBucketZeroesVacatedSlots(t *testing.T) {
	t.Run("head pop", func(t *testing.T) {
		var b bucket
		for i := 0; i < 3; i++ {
			b.push(mkMsg(i + 1))
		}
		b.removeAt(b.head)
		if b.head != 1 || len(b.items) != 3 {
			t.Fatalf("after head pop: head=%d len=%d", b.head, len(b.items))
		}
		if !deadSlotsClean(&b) {
			t.Error("head pop retained the delivered message")
		}
	})

	t.Run("middle removal", func(t *testing.T) {
		var b bucket
		for i := 0; i < 3; i++ {
			b.push(mkMsg(i + 1))
		}
		b.removeAt(1) // out-of-order match: shift the tail down
		if len(b.items) != 2 {
			t.Fatalf("after middle removal: len=%d", len(b.items))
		}
		if got := b.items[1].tag; got != 3 {
			t.Errorf("tail message lost: tag=%d, want 3", got)
		}
		if !deadSlotsClean(&b) {
			t.Error("middle removal left a stale copy in the vacated tail slot")
		}
	})

	t.Run("drain resets", func(t *testing.T) {
		var b bucket
		for i := 0; i < 4; i++ {
			b.push(mkMsg(i + 1))
		}
		for !b.empty() {
			b.removeAt(b.head)
		}
		if b.head != 0 || len(b.items) != 0 {
			t.Fatalf("drained bucket not reset: head=%d len=%d", b.head, len(b.items))
		}
		if !deadSlotsClean(&b) {
			t.Error("drained bucket retained payloads in its backing array")
		}
	})

	t.Run("push compaction", func(t *testing.T) {
		var b bucket
		const n = 40
		for i := 0; i < n; i++ {
			b.push(mkMsg(i + 1))
		}
		// Pop more than half from the head so the next push reclaims the
		// dead prefix (head > 16 && head*2 >= len).
		for i := 0; i < 24; i++ {
			b.removeAt(b.head)
		}
		before := cap(b.items)
		b.push(mkMsg(n + 1))
		if b.head != 0 {
			t.Fatalf("push did not compact: head=%d", b.head)
		}
		if cap(b.items) != before {
			t.Fatalf("compaction reallocated: cap %d -> %d", before, cap(b.items))
		}
		if len(b.items) != n-24+1 {
			t.Fatalf("after compaction: len=%d, want %d", len(b.items), n-24+1)
		}
		// Live messages must survive in order...
		for i, m := range b.items {
			if want := 25 + i; m.tag != want {
				t.Fatalf("item %d: tag=%d, want %d", i, m.tag, want)
			}
		}
		// ...and the copied-from tail slots must be zeroed.
		if !deadSlotsClean(&b) {
			t.Error("compaction left stale message copies beyond the live window")
		}
	})
}

// TestMailboxZeroesAfterDelivery checks the same invariant one level up:
// after a mailbox hands out a message, no bucket retains its payload.
func TestMailboxZeroesAfterDelivery(t *testing.T) {
	m := newMailbox(3)
	m.put(message{src: 1, tag: 7, payload: []float64{1, 2}, bytes: 16})
	m.put(message{src: 2, tag: 7, payload: []float64{3}, bytes: 8})
	m.put(message{src: 1, tag: 9, payload: []float64{4}, bytes: 8})

	m.mu.Lock()
	defer m.mu.Unlock()
	var msg message
	if ok := m.match(1, 9, &msg); !ok || msg.payload.([]float64)[0] != 4 {
		t.Fatalf("match(1,9) = %+v, %v", msg, ok)
	}
	if ok := m.match(2, 7, &msg); !ok || msg.payload.([]float64)[0] != 3 {
		t.Fatalf("match(2,7) = %+v, %v", msg, ok)
	}
	if m.nPending != 1 {
		t.Fatalf("nPending=%d, want 1", m.nPending)
	}
	for s := range m.bySrc {
		b := &m.bySrc[s]
		for i := 0; i < cap(b.items); i++ {
			if i >= b.head && i < len(b.items) {
				continue
			}
			if b.items[:cap(b.items)][i].payload != nil {
				t.Errorf("src %d: delivered payload retained in slot %d", s, i)
			}
		}
	}
}

// TestAnySourceSeqOrder: an AnySource match must take the earliest-arrived
// message across all source buckets (global seq order), not whichever
// bucket happens to be scanned first — the indexed layout must preserve
// the flat queue's wildcard semantics.
func TestAnySourceSeqOrder(t *testing.T) {
	m := newMailbox(4)
	// Interleave arrivals across sources; seq stamps are assigned by put.
	arrivals := []struct{ src, tag int }{
		{2, 5}, {0, 5}, {3, 5}, {0, 5}, {1, 5},
	}
	for i, a := range arrivals {
		m.put(message{src: a.src, tag: a.tag, payload: i})
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for want := 0; want < len(arrivals); want++ {
		var msg message
		if !m.match(AnySource, 5, &msg) {
			t.Fatalf("match %d: no message", want)
		}
		if got := msg.payload.(int); got != want {
			t.Fatalf("wildcard match %d returned arrival %d (src %d); want global arrival order", want, got, msg.src)
		}
	}
	if m.nPending != 0 {
		t.Fatalf("nPending=%d after drain", m.nPending)
	}
}

// TestAnySourceSkipsBlockedHeadTag: within one bucket only the earliest
// entry can match a given wildcard scan (FIFO per source), but a
// non-matching tag at a bucket's head must not hide a matching message
// behind it from a concrete-tag receive.
func TestConcreteTagScansPastHead(t *testing.T) {
	m := newMailbox(2)
	m.put(message{src: 1, tag: 3, payload: "first"})
	m.put(message{src: 1, tag: 8, payload: "second"})
	m.mu.Lock()
	defer m.mu.Unlock()
	var msg, msg2 message
	ok := m.match(1, 8, &msg)
	if !ok || msg.payload.(string) != "second" {
		t.Fatalf("match(1,8) = %+v, %v; want the message behind the head", msg, ok)
	}
	if ok := m.match(1, 3, &msg2); !ok || msg2.payload.(string) != "first" {
		t.Fatalf("head message lost after out-of-order match: %+v, %v", msg2, ok)
	}
}
