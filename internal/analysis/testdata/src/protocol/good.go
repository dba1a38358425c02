package fixture

const tagOK = 600

// syncUp hides a Barrier behind a call — fine as long as every arm of a
// divergent branch reaches it.
func syncUp(c *Comm) {
	c.Barrier()
}

// Both arms run the same collective through the helper: the expanded
// sequences match, so there is nothing to report.
func helperBothArms(c *Comm) {
	if c.Rank() == 0 {
		syncUp(c)
	} else {
		syncUp(c)
	}
}

// The tag parameter binds to 600 at the call site below, and a Recv with
// tag 600 exists — interprocedural matching pairs them up.
func sendTagged(c *Comm, tag int) {
	Send(c, 1, tag, 1)
}

func pingOK(c *Comm) {
	sendTagged(c, tagOK)
	_ = Recv(c, 0, tagOK)
}

// A loop whose trip count is rank-independent may run collectives freely:
// every rank executes the same number.
func collInUniformLoop(c *Comm, n int) {
	for i := 0; i < n; i++ {
		Bcast(c, 0, i)
	}
}

// An iota tag whose Send and Recv pair up.
func startRound(c *Comm) {
	Send(c, 1, tagStart, 1)
	_ = Recv(c, 0, tagStart)
}
