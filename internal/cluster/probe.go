package cluster

import "repro/internal/obs"

// Probe reports whether a message matching (src, tag) is waiting, without
// receiving it — MPI_Iprobe. It is ProbeNext's hit bit.
func (c *Comm) Probe(src, tag int) bool {
	_, _, hit := c.ProbeNext(src, tag)
	return hit
}

// ProbeNext reports the source and tag of the message a matching
// Recv(src, tag) would deliver next, without receiving it — MPI_Probe
// with its status object. The answer is seq-ordered (true arrival
// order), so the receive that follows is guaranteed to deliver the
// message ProbeNext named, provided no other message is consumed in
// between. src may be AnySource and tag AnyTag (AnyTag on the world
// only). With a trace attached the poll is recorded as an instant event,
// so a polling manager's duty cycle is visible on the timeline.
func (c *Comm) ProbeNext(src, tag int) (msgSrc, msgTag int, ok bool) {
	var msg message
	if !c.poll(src, tag, false, &msg) {
		return 0, 0, false
	}
	if tag == AnyTag {
		tag = msg.tag // world only: a group rejects AnyTag in poll
	}
	return c.fromWorld(msg.src, src), tag, true
}

// TryRecv receives a matching message if one is already waiting; ok is
// false when none is pending (it never blocks). The manager of a dynamic
// farm can use it to poll between other duties. A hit completes exactly
// like Recv (finishRecv); a miss is recorded as an instant probe.
func TryRecv[T any](c *Comm, src, tag int) (v T, ok bool) {
	simStart := c.clock
	var wallStart int64
	if c.rec != nil {
		wallStart = c.rec.Now()
	}
	var msg message
	if !c.poll(src, tag, true, &msg) {
		return v, false
	}
	c.finishRecv(&msg, src, simStart, wallStart)
	return msg.payload.(T), true
}

// poll is the probe path behind ProbeNext and TryRecv: one non-blocking
// scan of the mailbox through peek, the same seq-ordered match Recv
// uses, so a probe can never name a different "next message" than the
// receive that follows it. A hit is copied into msg. With take set it is
// also removed, for the caller to finish; otherwise the poll is recorded
// as a "probe" instant (as is a TryRecv miss). msg.src is a world rank.
func (c *Comm) poll(src, tag int, take bool, msg *message) (ok bool) {
	wsrc, wtag := c.toWorld(src), c.userTag(tag)
	box := c.world.boxes[c.worldRank]
	box.mu.Lock()
	if take {
		ok = box.match(wsrc, wtag, msg)
	} else if bkt, idx, hit := box.peek(wsrc, wtag); hit {
		*msg, ok = box.bySrc[bkt].items[idx], true
	}
	box.mu.Unlock()
	if c.rec != nil && !(take && ok) {
		c.rec.Instant("probe", wsrc, wtag, 0, c.clock, obs.KV{K: "hit", V: boolKV(ok)})
	}
	return ok
}

func boolKV(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
