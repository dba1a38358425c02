package fixture

// Deep-copying before the send severs the alias: the caller keeps
// mutating its own array while the copy is in flight.
func copyBeforeSend(c *Comm, buf []float64) {
	out := append([]float64(nil), buf...)
	Send(c, 1, tagA, out)
	buf[0] = 3
}

// A collective is a happens-after point for in-flight sends.
func syncThenWrite(c *Comm, buf []float64) {
	Send(c, 1, tagA, buf)
	c.Barrier()
	buf[0] = 4
}

// A blocking receive from the same peer implies it consumed the message
// (request-reply order), so the buffer is ours again.
func replyThenWrite(c *Comm, buf []float64) {
	Send(c, 1, tagA, buf)
	ack := Recv[int](c, 1, tagA)
	_ = ack
	buf[0] = 5
}

// Rebinding to a fresh allocation kills the shared view.
func rebindKills(c *Comm, w []float64) {
	w = Bcast(c, 0, w)
	w = append([]float64(nil), w...)
	w[0] = 6
}

// Reading a sent buffer is fine; only writes race with the peer.
func readOnlyHelper(c *Comm, buf []float64) float64 {
	Send(c, 1, tagB, buf)
	return sum(buf)
}

// An Allreduce payload is reusable the moment the call returns: the
// recursive-doubling path sends clones and the reduce+bcast fallback
// snapshots at the root before broadcasting. Zeroing the hoisted buffer
// for the next round is the pattern the hotalloc rule recommends. The
// *result* stays shared and must not be written (see bad.go).
func reuseAllreducePayload(c *Comm, rounds int) {
	buf := make([]float64, 8)
	for i := 0; i < rounds; i++ {
		for j := range buf {
			buf[j] = 0
		}
		buf[0] = float64(i)
		red := Allreduce(c, buf, sumSlices)
		_ = red[0]
	}
}

func sumSlices(a, b []float64) []float64 {
	for i := range b {
		a[i] += b[i]
	}
	return a
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, v := range xs {
		t += v
	}
	return t
}

// A Split group is a private communicator, not a payload shared with
// other ranks: updating it is not a write to a shared buffer.
func groupClock(c *Comm) {
	g := c.Split(c.Rank()%2, c.Rank())
	g.AdvanceClock(1e-6)
	g.Barrier()
}
