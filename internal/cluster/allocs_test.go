package cluster

import (
	"runtime"
	"testing"
)

// collP4Allocs is what one coll-p4-shaped op allocates on P=4, summed
// over its ranks: Bcast 2 (one boxing per sending rank), Allreduce 4 (the
// results), Alltoall 16 (each rank's result slice and three boxings),
// Gather 11 (segments, boxings and the root's result) and Scan 1 (the one
// partial sum above 255, which Go cannot box without allocating). Before
// payloads were boxed once and Allreduce snapshots recycled, the same op
// allocated 89.
const collP4Allocs = 34

// mallocsPerOp runs body n times on every rank of w to warm it up (mailbox
// buckets, recycled snapshots), then n times more, and returns the heap
// allocations of one run of body summed over all ranks. Like
// testing.AllocsPerRun it counts runtime.MemStats.Mallocs and divides with
// integer division. Barriers bracket the measured runs; a Barrier
// allocates nothing.
func mallocsPerOp(t *testing.T, w *World, n int, body func(c *Comm)) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	err := w.Run(func(c *Comm) {
		for i := 0; i < n; i++ {
			body(c)
		}
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		c.Barrier()
		for i := 0; i < n; i++ {
			body(c)
		}
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return (after.Mallocs - before.Mallocs) / uint64(n)
}

// TestCollectiveAllocs holds the in-process message path to its
// allocation budget on a P=4 world: a Barrier allocates nothing, a
// message of a []float64 at most its one boxing, a steady-state Allreduce
// of 2 KiB at most its result on each rank, and one coll-p4-shaped op at
// most collP4Allocs. The race detector changes allocation counts, so the
// test skips under it; check.sh runs it in a step of its own.
func TestCollectiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const p, n = 4, 200
	ins := make([]*collP4Input, p)
	for r := range ins {
		ins[r] = newCollP4Input(p, r)
	}
	cases := []struct {
		name   string
		body   func(c *Comm)
		budget uint64
	}{
		{"Barrier", func(c *Comm) { c.Barrier() }, 0},
		{"SendRecv", func(c *Comm) {
			Send(c, (c.Rank()+1)%p, 1, ins[c.Rank()].red)
			Recv[[]float64](c, (c.Rank()+p-1)%p, 1)
		}, p},
		{"Allreduce", func(c *Comm) { Allreduce(c, ins[c.Rank()].red, SumFloat64s) }, p},
		{"coll-p4", func(c *Comm) { collP4Op(c, ins[c.Rank()]) }, collP4Allocs},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := mallocsPerOp(t, NewWorld(p), n, tc.body); got > tc.budget {
				t.Errorf("%d allocations per op on P=%d, budget %d", got, p, tc.budget)
			} else {
				t.Logf("%d allocations per op on P=%d, budget %d", got, p, tc.budget)
			}
		})
	}
}
