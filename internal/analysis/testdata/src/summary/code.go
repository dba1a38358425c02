package fixture

const tagData = 7

// helperSend's summary keeps dst and tag symbolic: they are parameters,
// bindable by each caller.
func helperSend(c *Comm, dst, tag int) {
	Send(c, dst, tag, 1)
}

// sendData's summary splices helperSend with both operands folded to the
// caller's constants.
func sendData(c *Comm) {
	helperSend(c, 2, tagData)
}

// phase demonstrates a rank-divergent branch (arms kept separate even
// when equal) and a loop whose trip count depends on the rank.
func phase(c *Comm, myRank int) {
	if myRank == 0 {
		Bcast(c, 0, 1)
	} else {
		Bcast(c, 0, 0)
	}
	for i := 0; i < myRank; i++ {
		Send(c, i, tagData, 0)
	}
}

// guardedBarrier keeps its rank-guarded early return as a branch, and
// the Barrier after it moves into the arm of the ranks that fall through.
// The collective rule reports it.
func guardedBarrier(c *Comm) {
	if c.Rank() > 1 {
		return
	}
	c.Barrier()
}
