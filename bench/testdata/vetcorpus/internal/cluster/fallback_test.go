package cluster

import (
	"testing"

	"repro/internal/obs"
)

// countFallbacks tallies "coll.fallback" instants in a trace by their
// op code (1 = Allreduce, 2 = Allgather).
func countFallbacks(t *obs.Trace) map[int64]int {
	out := map[int64]int{}
	for _, e := range t.Events() {
		if !e.Instant || e.Op != "coll.fallback" {
			continue
		}
		for _, kv := range e.KV {
			if kv.K == "op" {
				out[kv.V]++
			}
		}
	}
	return out
}

// TestCollectiveFallbackInstants pins the satellite contract for the
// silent-downgrade bug: on a non-power-of-two world the optimized
// Allreduce and Allgather take their linear/binomial reference paths, and
// with a trace attached each downgraded call must leave a per-rank
// "coll.fallback" instant — a P=6 benchmark must not read like recursive
// doubling when it ran the baseline. Power-of-two worlds and explicit
// BaselineCollectives runs must stay marker-free.
func TestCollectiveFallbackInstants(t *testing.T) {
	run := func(size int, opts Options) *obs.Trace {
		w := NewWorldOpts(size, opts)
		trace := w.Observe()
		if err := w.Run(func(c *Comm) {
			Allreduce(c, float64(c.Rank()), func(a, b float64) float64 { return a + b })
			Allgather(c, c.Rank())
		}); err != nil {
			t.Fatal(err)
		}
		return trace
	}

	t.Run("non-pow2 marks every rank", func(t *testing.T) {
		got := countFallbacks(run(6, DefaultOptions()))
		if got[1] != 6 || got[2] != 6 {
			t.Fatalf("P=6: want 6 Allreduce and 6 Allgather fallback instants (one per rank), got %v", got)
		}
	})
	t.Run("pow2 stays clean", func(t *testing.T) {
		if got := countFallbacks(run(4, DefaultOptions())); len(got) != 0 {
			t.Fatalf("P=4 took the fast paths but emitted fallback instants: %v", got)
		}
	})
	t.Run("explicit baseline is not a downgrade", func(t *testing.T) {
		opts := DefaultOptions()
		opts.BaselineCollectives = true
		if got := countFallbacks(run(6, opts)); len(got) != 0 {
			t.Fatalf("BaselineCollectives is an explicit request, not a fallback; got instants %v", got)
		}
	})
}
