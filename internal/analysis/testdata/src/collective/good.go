package fixture

import (
	"os"

	"example.com/cluster"
)

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

// Every case of the rank switch runs the same Barrier.
func switchedAgree(c *Comm) {
	switch c.Rank() {
	case 0:
		c.Barrier()
	case 1:
		c.Barrier()
	default:
		c.Barrier()
	}
}

// rank is the launcher's environment string here, not a rank id: every
// rank takes the same path, so the early return splits no ranks.
func envGuard(c *Comm) {
	rank := os.Getenv("PEACHY_RANK")
	if rank == "" {
		return
	}
	c.Barrier()
}

// job.Reduce is the user's reduce function, not the collective: it takes
// as many arguments, but a key comes first, not a Comm.
type job struct {
	Reduce func(key string, vals []int, lo, hi int) int
}

func rootReducesKey(c *Comm, j job) {
	if c.Rank() == 0 {
		_ = j.Reduce("k", nil, 0, 1)
	}
}

// go/types cannot resolve this import, so its calls match by name and
// exact arity: a three-argument Reduce is not the four-argument
// collective.
func rootCallsUntypedReduce(c *Comm) {
	if c.Rank() == 0 {
		_ = cluster.Reduce(c, 1, func(a, b int) int { return a + b })
	}
}
