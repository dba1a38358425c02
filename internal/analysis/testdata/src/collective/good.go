package fixture

// Both arms call the same collective: the sequences agree per rank.
func matchedArms(c *Comm) {
	if c.Rank() == 0 {
		c.Barrier()
	} else {
		c.Barrier()
	}
}

// Rank-divergent branch with no collectives at all: plain rank-local work.
func rankLocalWork(c *Comm) {
	x := 0
	if c.Rank() == 0 {
		x = 1
	}
	c.Barrier()
	_ = x
}

// The root-only arm has no collectives and the others return before any;
// continuation sequences are both empty.
func rootOnlyEpilogue(c *Comm) {
	sum := Allreduce(c, c.Rank(), func(a, b int) int { return a + b })
	if c.Rank() != 0 {
		return
	}
	_ = sum
}

// An early return in one arm paired with the same collective in the other
// arm's continuation: rank 0 runs Barrier inside the if, everyone else
// falls through to the same Barrier after it.
func balancedEarlyPaths(c *Comm) {
	if c.Rank() == 0 {
		c.Barrier()
		return
	}
	c.Barrier()
}

// The hierarchical reduction: every rank joins both splits, and the
// leaders-only collective runs on the leaders group, whose members are
// exactly the ranks the node.Rank() guard admits.
func hierarchicalReduction(c *Comm) {
	node := c.Split(c.Rank()/4, c.Rank())
	local := Reduce(node, 0, 1, func(a, b int) int { return a + b })
	leaders := c.Split(map[bool]int{true: 0, false: -1}[node.Rank() == 0], c.Rank())
	if node.Rank() == 0 {
		total := Allreduce(leaders, local, func(a, b int) int { return a + b })
		_ = total
	}
}

// phaseLog is not a communicator: its Barrier only closes a rank-local
// phase, so one rank may call it alone. The call reaches it through a
// struct field, and only the method's receiver type tells it from
// Comm.Barrier.
type phaseLog struct{ closed int }

func (p *phaseLog) Barrier() { p.closed++ }

type worker struct{ log *phaseLog }

func rootClosesPhase(c *Comm, w *worker) {
	if c.Rank() == 0 {
		w.log.Barrier()
	}
}
