package fixture

// Only rank 0 enters the Barrier: ranks 1..P-1 never match it, so every
// rank deadlocks inside the collective.
func divergentBarrier(c *Comm) {
	if c.Rank() == 0 { // WANT collective
		c.Barrier()
	}
}

// The arms run different collectives: Bcast traffic on some ranks meets
// Allreduce traffic on others.
func mixedArms(c *Comm) {
	if c.Rank() == 0 { // WANT collective
		Bcast(c, 0, 1)
	} else {
		Allreduce(c, 1, func(a, b int) int { return a + b })
	}
}

// Ranks above 1 leave early, so they skip the Barrier every other rank
// falls through to.
func earlyReturnSkipsBarrier(c *Comm) {
	if c.Rank() > 1 { // WANT collective
		return
	}
	c.Barrier()
}

// The divergence hides one block deeper: the guarded return is inside a
// loop body, but the fall-through Barrier is outside the loop.
func nestedEarlyReturn(c *Comm) {
	for i := 0; i < 3; i++ {
		if c.Rank() == 0 { // WANT collective
			return
		}
	}
	c.Barrier()
}

// Scatter and Alltoall pick their algorithm (binomial tree, pairwise
// exchange) inside the runtime, but the analyzer's vocabulary is the
// exported name — divergence must still be flagged.
func divergentScatter(c *Comm) {
	if c.Rank() != 0 { // WANT collective
		return
	}
	Scatter(c, 0, []int{1, 2})
}

func mixedScatterAlltoall(c *Comm) {
	if c.Rank() == 0 { // WANT collective
		Scatter(c, 0, []int{1, 2})
	} else {
		Alltoall(c, []int{1, 2})
	}
}

// A Split group is a communicator like the world: only group rank 0
// enters the group's Barrier, so the other members never match it.
func divergentGroupBarrier(c *Comm) {
	sub := c.Split(c.Rank()%2, c.Rank())
	if sub.Rank() == 0 { // WANT collective
		sub.Barrier()
	}
}

// A switch on the rank splits the ranks like an if does: rank 0
// broadcasts while the others enter an Allreduce.
func switchedCollectives(c *Comm) {
	switch c.Rank() { // WANT collective
	case 0:
		Bcast(c, 0, 1)
	default:
		Allreduce(c, 1, func(a, b int) int { return a + b })
	}
}

// The loop condition runs an Allreduce on every test, and ranks above 0
// have returned before the loop.
func convergeOnRoot(c *Comm) {
	if c.Rank() > 0 { // WANT collective
		return
	}
	for Allreduce(c, 1, func(a, b int) int { return a + b }) > 0 {
	}
}
