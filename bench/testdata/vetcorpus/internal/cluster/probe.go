package cluster

import "repro/internal/obs"

// Probe reports whether a message matching (src, tag) is waiting, without
// receiving it — MPI_Iprobe. src may be AnySource and tag AnyTag. With a
// trace attached the poll is recorded as an instant event, so a polling
// manager's duty cycle is visible on the timeline.
func (c *Comm) Probe(src, tag int) bool {
	box := c.world.boxes[c.rank]
	box.mu.Lock()
	_, _, hit := box.probeLocked(src, tag)
	box.mu.Unlock()
	if c.rec != nil {
		c.rec.Instant("probe", src, tag, 0, c.clock, obs.KV{K: "hit", V: boolKV(hit)})
	}
	return hit
}

// probeLocked is Probe's matching scan: a non-destructive peek through
// the same seq-ordered scan Recv matches with. Earlier versions walked
// the bySrc buckets in rank order, so a wildcard probe could name a
// match from a low rank while Recv(AnySource) would deliver an
// earlier-arrived message from a higher rank — Probe/TryRecv and Recv
// disagreed about which message was "next". Sharing peek makes the
// disagreement structurally impossible. Caller holds m.mu.
func (m *mailbox) probeLocked(src, tag int) (msgSrc, msgTag int, ok bool) {
	bkt, idx, ok := m.peek(src, tag)
	if !ok {
		return 0, 0, false
	}
	msg := &m.bySrc[bkt].items[idx]
	return msg.src, msg.tag, true
}

// ProbeNext reports the source and tag of the message a matching
// Recv(src, tag) would deliver next, without receiving it — MPI_Probe
// with its status object. The answer is seq-ordered (true arrival
// order), so the receive that follows is guaranteed to deliver the
// message ProbeNext named, provided no other message is consumed in
// between. src may be AnySource and tag AnyTag.
func (c *Comm) ProbeNext(src, tag int) (msgSrc, msgTag int, ok bool) {
	box := c.world.boxes[c.rank]
	box.mu.Lock()
	msgSrc, msgTag, ok = box.probeLocked(src, tag)
	box.mu.Unlock()
	if c.rec != nil {
		c.rec.Instant("probe", src, tag, 0, c.clock, obs.KV{K: "hit", V: boolKV(ok)})
	}
	return msgSrc, msgTag, ok
}

func boolKV(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TryRecv receives a matching message if one is already waiting; ok is
// false when none is pending (it never blocks). The manager of a dynamic
// farm can use it to poll between other duties. A hit counts as a normal
// receive in an attached trace; a miss is recorded as an instant probe.
func TryRecv[T any](c *Comm, src, tag int) (v T, ok bool) {
	box := c.world.boxes[c.rank]
	simStart := c.clock
	var wallStart int64
	if c.rec != nil {
		wallStart = c.rec.Now()
	}
	box.mu.Lock()
	msg, ok := box.match(src, tag)
	box.mu.Unlock()
	if !ok {
		if c.rec != nil {
			c.rec.Instant("probe", src, tag, 0, c.clock, obs.KV{K: "hit", V: 0})
		}
		return v, false
	}
	if msg.arrive > c.clock {
		c.clock = msg.arrive
	}
	if c.rec != nil {
		c.rec.Recv(msg.src, msg.tag, int64(msg.bytes), simStart, c.clock, wallStart)
	}
	return msg.payload.(T), true
}
