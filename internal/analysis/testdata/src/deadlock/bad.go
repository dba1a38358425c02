package fixture

const (
	tagPing = 101
	tagPong = 102
	tagRing = 103
)

// Both arms block in a Recv whose matching Send sits after the other
// arm's blocked Recv: rank 0 waits for the pong that rank 1 only sends
// after receiving the ping rank 0 never got to send. No interleaving of
// ranks can finish.
func crossWait(c *Comm) {
	if c.Rank() == 0 { // WANT deadlock
		v := Recv(c, 1, tagPong)
		Send(c, 1, tagPing, v)
	} else {
		v := Recv(c, 0, tagPing)
		Send(c, 0, tagPong, v)
	}
}

// Rank-uniform receive-before-send inside a rank body: every rank blocks
// at the Recv, so no rank ever reaches the Send that would satisfy it.
func ringRecvFirst(w *World) {
	_ = w.Run(func(c *Comm) {
		v := Recv(c, 0, tagRing) // WANT deadlock
		Send(c, 1, tagRing, v)
	})
}

const (
	tagGuard   = 104
	tagAsk     = 105
	tagAnswer  = 106
	tagRelease = 107
	tagStep    = 108
)

// Ranks above 3 leave first; every rank that stays blocks at the Recv
// before any of them reaches the Send.
func guardedRecvFirst(w *World) {
	_ = w.Run(func(c *Comm) {
		if c.Rank() > 3 {
			return
		}
		v := Recv(c, 0, tagGuard) // WANT deadlock
		Send(c, 1, tagGuard, v)
	})
}

// The wait cycle of crossWait, followed by a rank-guarded early return:
// the ranks that stay after it run straight-line code.
func crossWaitThenGuard(c *Comm) {
	if c.Rank() == 0 { // WANT deadlock
		v := Recv(c, 1, tagAnswer)
		Send(c, 1, tagAsk, v)
	} else {
		v := Recv(c, 0, tagAsk)
		Send(c, 0, tagAnswer, v)
	}
	if c.Rank() > 1 {
		return
	}
	Send(c, 0, tagRelease, 1)
	_ = Recv(c, 0, tagRelease)
}

// The same hang behind a helper: ranks above 3 return from ringStep, and
// the others all block at its Recv.
func ringStep(c *Comm) {
	if c.Rank() > 3 {
		return
	}
	v := Recv(c, 0, tagStep) // WANT deadlock
	Send(c, 1, tagStep, v)
}

func helperRecvFirst(w *World) {
	_ = w.Run(func(c *Comm) {
		ringStep(c)
	})
}
