package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

// perRank records every collective result one rank observed while running
// the property script. Reduce partials are unspecified off-root and Gather
// returns nil off-root, so those fields hold zero values on non-roots.
type perRank struct {
	Bcast     float64
	Reduce    int64
	Allreduce []float64
	Gather    []int64
	Allgather []string
	Scatter   []float64
	Alltoall  []int64
	Scan      int64
}

// collectiveScript runs one call to every collective on a fresh world of
// size p and returns the per-rank observations plus the world (for sim
// statistics). All payloads are integer-valued, so sums are exact under
// any reduction order — recursive doubling and the binomial tree fold in
// different orders, which would diverge in the last float64 bits for
// general inputs but not for integers within 2^53.
func collectiveScript(t *testing.T, p int, opts Options) ([]perRank, *World) {
	t.Helper()
	out := make([]perRank, p)
	w := NewWorldOpts(p, opts)
	err := w.Run(func(c *Comm) {
		collectiveBody(c, &out[c.Rank()]) // each rank writes only its own slot
	})
	if err != nil {
		t.Fatalf("P=%d opts=%+v: Run failed: %v", p, opts, err)
	}
	return out, w
}

// collectiveBody is collectiveScript's per-rank program. It runs on any
// communicator, world or group, and records into rec what wantPerRank
// predicts for c's rank and size.
func collectiveBody(c *Comm, rec *perRank) {
	r, p := c.Rank(), c.Size()
	c.Barrier()
	rec.Bcast = Bcast(c, p-1, float64((r+1)*1000))

	rec.Reduce = Reduce(c, p/2, int64(r+1), func(a, b int64) int64 { return a + b })
	if r != p/2 {
		rec.Reduce = 0 // non-root partials are explicitly unspecified
	}

	vec := []float64{float64(r + 1), float64((r + 1) * (r + 1))}
	rec.Allreduce = Allreduce(c, vec, SumFloat64s)

	rec.Gather = Gather(c, p/2, int64(r*10+1))

	rec.Allgather = Allgather(c, fmt.Sprintf("rank-%d", r))

	var parts [][]float64
	if r == p/2 {
		parts = make([][]float64, p)
		for i := range parts {
			parts[i] = []float64{float64(2 * i), float64(2*i + 1)}
		}
	}
	rec.Scatter = Scatter(c, p/2, parts)

	a2a := make([]int64, p)
	for i := range a2a {
		a2a[i] = int64(r*100 + i)
	}
	rec.Alltoall = Alltoall(c, a2a)

	rec.Scan = Scan(c, int64(r+1), func(a, b int64) int64 { return a + b })
	c.Barrier()
}

// wantPerRank computes the script's ground truth directly, with no
// collective machinery involved.
func wantPerRank(p int) []perRank {
	var sum1, sum2 float64
	var reduceSum int64
	gathered := make([]int64, p)
	names := make([]string, p)
	for r := 0; r < p; r++ {
		sum1 += float64(r + 1)
		sum2 += float64((r + 1) * (r + 1))
		reduceSum += int64(r + 1)
		gathered[r] = int64(r*10 + 1)
		names[r] = fmt.Sprintf("rank-%d", r)
	}
	out := make([]perRank, p)
	scan := int64(0)
	for r := 0; r < p; r++ {
		scan += int64(r + 1)
		a2a := make([]int64, p)
		for i := 0; i < p; i++ {
			a2a[i] = int64(i*100 + r) // what rank i addressed to rank r
		}
		out[r] = perRank{
			Bcast:     float64(p * 1000), // root p-1 contributed (p-1+1)*1000
			Allreduce: []float64{sum1, sum2},
			Allgather: append([]string(nil), names...),
			Scatter:   []float64{float64(2 * r), float64(2*r + 1)},
			Alltoall:  a2a,
			Scan:      scan,
		}
		if r == p/2 {
			out[r].Reduce = reduceSum
			out[r].Gather = append([]int64(nil), gathered...)
		}
	}
	return out
}

// TestCollectivesMatchBaseline is the property test for the optimized
// collective algorithms: for every world size 1..9 (covering P=1, powers
// of two that take the recursive-doubling/pairwise paths, and non-powers
// that take the fallbacks), every collective must produce exactly the
// values of (a) direct ground-truth computation and (b) the
// BaselineCollectives reference algorithms — with and without the runtime
// verifier enabled.
func TestCollectivesMatchBaseline(t *testing.T) {
	for p := 1; p <= 9; p++ {
		p := p
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			want := wantPerRank(p)
			variants := []struct {
				name string
				opts Options
			}{
				{"optimized", DefaultOptions()},
				{"baseline", func() Options { o := DefaultOptions(); o.BaselineCollectives = true; return o }()},
				{"optimized+verify", VerifyOptions()},
				{"baseline+verify", func() Options { o := VerifyOptions(); o.BaselineCollectives = true; return o }()},
			}
			results := make([][]perRank, len(variants))
			for i, v := range variants {
				got, _ := collectiveScript(t, p, v.opts)
				results[i] = got
				for r := range got {
					if !reflect.DeepEqual(got[r], want[r]) {
						t.Errorf("%s rank %d:\n got %+v\nwant %+v", v.name, r, got[r], want[r])
					}
				}
			}
			// The baseline run is the oracle: optimized must agree with it
			// rank by rank (redundant with the ground-truth check above, but
			// catches the two diverging identically from `want`).
			if !reflect.DeepEqual(results[0], results[1]) {
				t.Errorf("optimized and baseline worlds disagree:\n opt %+v\nbase %+v", results[0], results[1])
			}
		})
	}
}

// TestCollectiveSimCostDeterministic: the simulated cost of a collective
// script must not depend on goroutine scheduling — two runs of the same
// program on identical worlds must report identical SimTime, message and
// byte totals. (This is what makes the recorded sim-us columns in the
// experiment tables reproducible.)
func TestCollectiveSimCostDeterministic(t *testing.T) {
	for _, p := range []int{4, 7, 8} {
		_, w1 := collectiveScript(t, p, DefaultOptions())
		_, w2 := collectiveScript(t, p, DefaultOptions())
		if w1.SimTime() != w2.SimTime() {
			t.Errorf("P=%d: SimTime not deterministic: %v vs %v", p, w1.SimTime(), w2.SimTime())
		}
		if w1.TotalMessages() != w2.TotalMessages() {
			t.Errorf("P=%d: message count not deterministic: %d vs %d", p, w1.TotalMessages(), w2.TotalMessages())
		}
		if w1.TotalBytes() != w2.TotalBytes() {
			t.Errorf("P=%d: byte count not deterministic: %d vs %d", p, w1.TotalBytes(), w2.TotalBytes())
		}
	}
}

// TestAllreduceLogScaling pins the O(log P) critical-path shape of the
// recursive-doubling Allreduce under the latency cost model: doubling a
// power-of-two world adds one round (one alpha of critical path per
// rank), where the baseline reduce+bcast adds two tree levels. With
// ByteTime zeroed the arithmetic is exact.
func TestAllreduceLogScaling(t *testing.T) {
	alpha := 1e-6
	cost := func(p int, baseline bool) float64 {
		opts := Options{Latency: alpha, BaselineCollectives: baseline}
		w := NewWorldOpts(p, opts)
		if err := w.Run(func(c *Comm) {
			Allreduce(c, float64(c.Rank()), func(a, b float64) float64 { return a + b })
		}); err != nil {
			t.Fatalf("P=%d baseline=%v: %v", p, baseline, err)
		}
		return w.SimTime()
	}
	for _, p := range []int{2, 4, 8, 16} {
		rd := cost(p, false)
		logP := 0
		for 1<<logP < p {
			logP++
		}
		// Every rank sends exactly log2(P) zero-... 8-byte messages, but
		// ByteTime is zero, so each rank's clock advances exactly
		// logP*alpha per round of recursive doubling.
		want := float64(logP) * alpha
		if diff := rd - want; diff < -1e-18 || diff > 1e-12 {
			t.Errorf("P=%d: recursive-doubling Allreduce SimTime=%g, want ~%g (log2 P rounds)", p, rd, want)
		}
		base := cost(p, true)
		if p >= 4 && base <= rd {
			t.Errorf("P=%d: baseline reduce+bcast SimTime %g not above recursive doubling %g", p, base, rd)
		}
	}
}

// groupRun is one collectiveBody run on a group: the group's shape as
// this rank saw it, and what the rank observed.
type groupRun struct {
	Size, Rank int
	Got        perRank
}

// groupScriptBody runs collectiveBody on Split groups of an 8-rank world:
// groups of 3 and 5 with reversed keys, a second split of the 5-group
// into 3 and 2, then a world split into two groups of 4. By that last
// split the 5-group's members have used one more tag namespace than the
// 3-group's, which a per-rank namespace counter would get wrong. World
// rank r appends its runs to runs[r] and its final clock to clocks[r].
func groupScriptBody(runs [][]groupRun, clocks []float64) func(c *Comm) {
	return func(c *Comm) {
		r := c.Rank()
		run := func(g *Comm) {
			gr := groupRun{Size: g.Size(), Rank: g.Rank()}
			collectiveBody(g, &gr.Got)
			runs[r] = append(runs[r], gr)
		}
		g := c.Split(min(r/3, 1), -r) // {2,1,0} and {7,6,5,4,3}
		run(g)
		if g.Size() == 5 {
			run(g.Split(g.Rank()%2, g.Rank()))
		}
		run(c.Split(r%2, -r))
		clocks[r] = c.Clock()
	}
}

// wantGroupShapes lists the (size, rank) of every group world rank r
// runs collectiveBody on in groupScriptBody, in order.
func wantGroupShapes(r int) [][2]int {
	out := [][2]int{{3, 2 - r}}
	if g := 7 - r; r >= 3 {
		out = [][2]int{{5, g}, {3 - g%2, g / 2}}
	}
	return append(out, [2]int{4, (7 - r) / 2})
}

// TestGroupCollectivesMatchWorld is the collective property test on
// groups: every collective run on a Split group, nested or not, must
// produce exactly wantPerRank for the group's size, under all four
// option variants. The Verify variants run first, so a namespace
// disagreement fails with a deadlock dump instead of hanging.
func TestGroupCollectivesMatchWorld(t *testing.T) {
	const P = 8
	for _, v := range []struct {
		name string
		opts Options
	}{
		{"optimized+verify", VerifyOptions()},
		{"baseline+verify", func() Options { o := VerifyOptions(); o.BaselineCollectives = true; return o }()},
		{"optimized", DefaultOptions()},
		{"baseline", func() Options { o := DefaultOptions(); o.BaselineCollectives = true; return o }()},
	} {
		runs := make([][]groupRun, P)
		if err := NewWorldOpts(P, v.opts).Run(groupScriptBody(runs, make([]float64, P))); err != nil {
			t.Fatalf("%s: Run failed: %v", v.name, err)
		}
		for r, rs := range runs {
			shapes := wantGroupShapes(r)
			if len(rs) != len(shapes) {
				t.Fatalf("%s world rank %d: %d group runs, want %d", v.name, r, len(rs), len(shapes))
			}
			for i, gr := range rs {
				if gr.Size != shapes[i][0] || gr.Rank != shapes[i][1] {
					t.Errorf("%s world rank %d run %d: group rank %d of %d, want %d of %d",
						v.name, r, i, gr.Rank, gr.Size, shapes[i][1], shapes[i][0])
					continue
				}
				if want := wantPerRank(gr.Size)[gr.Rank]; !reflect.DeepEqual(gr.Got, want) {
					t.Errorf("%s world rank %d run %d (group rank %d of %d):\n got %+v\nwant %+v",
						v.name, r, i, gr.Rank, gr.Size, gr.Got, want)
				}
			}
		}
	}
}
