package cluster

import (
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSendRecvRoundTrip(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, 1, 7, []float64{1, 2, 3})
		} else {
			got := Recv[[]float64](c, 0, 7)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("bad payload %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvFIFOPerPair(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 100; i++ {
				Send(c, 1, 5, i)
			}
		} else {
			for i := 0; i < 100; i++ {
				if got := Recv[int](c, 0, 5); got != i {
					t.Errorf("out of order: got %d want %d", got, i)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvMatchesTag(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, 1, 1, "tagged-1")
			Send(c, 1, 2, "tagged-2")
		} else {
			// Receive in reverse tag order.
			if got := Recv[string](c, 0, 2); got != "tagged-2" {
				t.Errorf("tag 2: %q", got)
			}
			if got := Recv[string](c, 0, 1); got != "tagged-1" {
				t.Errorf("tag 1: %q", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvAnySource(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) {
		if c.Rank() != 0 {
			Send(c, 0, 9, c.Rank())
			return
		}
		seen := map[int]bool{}
		for i := 0; i < 3; i++ {
			v, src := RecvFrom[int](c, AnySource, 9)
			if v != src {
				t.Errorf("payload %d from %d", v, src)
			}
			seen[src] = true
		}
		if len(seen) != 3 {
			t.Errorf("expected 3 distinct senders, got %v", seen)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPanicAborts(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			panic("boom")
		}
		// Rank 1 would deadlock without abort propagation.
		defer func() { recover() }()
		Recv[int](c, 0, 1)
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected panic error, got %v", err)
	}
}

func TestBarrierSynchronises(t *testing.T) {
	const P = 5
	w := NewWorld(P)
	var before, after int32
	err := w.Run(func(c *Comm) {
		atomic.AddInt32(&before, 1)
		c.Barrier()
		if atomic.LoadInt32(&before) != P {
			atomic.AddInt32(&after, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if after != 0 {
		t.Errorf("%d ranks passed the barrier before all entered", after)
	}
}

func TestBcastFromEveryRoot(t *testing.T) {
	const P = 6
	for root := 0; root < P; root++ {
		w := NewWorld(P)
		err := w.Run(func(c *Comm) {
			v := -1
			if c.Rank() == root {
				v = 4242
			}
			got := Bcast(c, root, v)
			if got != 4242 {
				t.Errorf("root=%d rank=%d got %d", root, c.Rank(), got)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestReduceSum(t *testing.T) {
	const P = 7
	for root := 0; root < P; root++ {
		w := NewWorld(P)
		err := w.Run(func(c *Comm) {
			got := Reduce(c, root, c.Rank()+1, func(a, b int) int { return a + b })
			if c.Rank() == root && got != P*(P+1)/2 {
				t.Errorf("root=%d sum=%d want %d", root, got, P*(P+1)/2)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllreduceSlice(t *testing.T) {
	const P = 4
	w := NewWorld(P)
	err := w.Run(func(c *Comm) {
		local := []float64{float64(c.Rank()), 1}
		got := Allreduce(c, local, SumFloat64s)
		if got[0] != 0+1+2+3 || got[1] != P {
			t.Errorf("rank %d allreduce = %v", c.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllreducePayloadReuse pins the payload-reuse contract the static
// analyzer (hotalloc, and the ownership engine's Allreduce exemption)
// relies on: the payload argument may be zeroed and refilled the moment
// the call returns, on both the recursive-doubling path (P = 2ᵏ) and
// the reduce+bcast fallback (odd P), without corrupting any rank's
// result — the pattern of a reduction buffer hoisted out of a hot loop.
func TestAllreducePayloadReuse(t *testing.T) {
	for _, P := range []int{4, 3} { // recursive doubling, then fallback
		w := NewWorld(P)
		err := w.Run(func(c *Comm) {
			buf := make([]float64, 2)
			for it := 0; it < 5; it++ {
				for j := range buf {
					buf[j] = 0
				}
				buf[0] = float64(c.Rank())
				buf[1] = float64(it)
				red := Allreduce(c, buf, SumFloat64s)
				// Immediately scribble over the payload argument: no
				// other rank's view of the reduction may change.
				buf[0], buf[1] = -1, -1
				c.Barrier()
				wantSum := float64(P*(P-1)) / 2
				if red[0] != wantSum || red[1] != float64(it*P) {
					t.Errorf("P=%d rank %d it %d: red = %v, want [%v %v]",
						P, c.Rank(), it, red, wantSum, it*P)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllreduceProperty(t *testing.T) {
	// Allreduce max over random per-rank values equals the true max on
	// every rank.
	f := func(vals [5]int16) bool {
		w := NewWorld(5)
		want := vals[0]
		for _, v := range vals[1:] {
			if v > want {
				want = v
			}
		}
		ok := int32(1)
		err := w.Run(func(c *Comm) {
			got := Allreduce(c, vals[c.Rank()], func(a, b int16) int16 {
				if a > b {
					return a
				}
				return b
			})
			if got != want {
				atomic.StoreInt32(&ok, 0)
			}
		})
		return err == nil && ok == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGatherScatter(t *testing.T) {
	const P = 5
	w := NewWorld(P)
	err := w.Run(func(c *Comm) {
		// Scatter rank-indexed strings, then gather them back.
		var parts []string
		if c.Rank() == 2 {
			parts = []string{"a", "b", "c", "d", "e"}
		}
		mine := Scatter(c, 2, parts)
		want := string(rune('a' + c.Rank()))
		if mine != want {
			t.Errorf("rank %d scattered %q want %q", c.Rank(), mine, want)
		}
		all := Gather(c, 0, mine)
		if c.Rank() == 0 {
			if strings.Join(all, "") != "abcde" {
				t.Errorf("gather = %v", all)
			}
		} else if all != nil {
			t.Errorf("non-root gather returned %v", all)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	const P = 6
	w := NewWorld(P)
	err := w.Run(func(c *Comm) {
		all := Allgather(c, c.Rank()*10)
		for r := 0; r < P; r++ {
			if all[r] != r*10 {
				t.Errorf("rank %d: all[%d]=%d", c.Rank(), r, all[r])
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoall(t *testing.T) {
	const P = 4
	w := NewWorld(P)
	err := w.Run(func(c *Comm) {
		parts := make([]int, P)
		for i := range parts {
			parts[i] = c.Rank()*100 + i
		}
		got := Alltoall(c, parts)
		for src := 0; src < P; src++ {
			if got[src] != src*100+c.Rank() {
				t.Errorf("rank %d from %d: %d", c.Rank(), src, got[src])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScan(t *testing.T) {
	const P = 6
	w := NewWorld(P)
	err := w.Run(func(c *Comm) {
		got := Scan(c, 1, func(a, b int) int { return a + b })
		if got != c.Rank()+1 {
			t.Errorf("rank %d scan = %d", c.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesInterleaveWithP2P(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) {
		c.Barrier()
		if c.Rank() == 0 {
			Send(c, 1, 3, 99)
		}
		s := Allreduce(c, 1, func(a, b int) int { return a + b })
		if s != 3 {
			t.Errorf("allreduce %d", s)
		}
		if c.Rank() == 1 {
			if got := Recv[int](c, 0, 3); got != 99 {
				t.Errorf("p2p after collectives got %d", got)
			}
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimClockAdvances(t *testing.T) {
	opts := Options{Latency: 1e-6, ByteTime: 1e-9}
	w := NewWorldOpts(4, opts)
	err := w.Run(func(c *Comm) {
		buf := make([]float64, 1000) // 8000 bytes
		Allreduce(c, buf, SumFloat64s)
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.SimTime() <= 0 {
		t.Error("sim clock did not advance")
	}
	// Reduce+Bcast over 4 ranks: each message costs at least latency.
	if w.TotalMessages() < 6 {
		t.Errorf("too few messages: %d", w.TotalMessages())
	}
	if w.TotalBytes() < 6*8000 {
		t.Errorf("too few bytes: %d", w.TotalBytes())
	}
}

func TestSimClockMessageOrdering(t *testing.T) {
	// Receiver's clock must be >= sender's clock at send completion.
	w := NewWorldOpts(2, Options{Latency: 1.0, ByteTime: 0})
	var recvClock float64
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.AdvanceClock(10)
			Send(c, 1, 1, 0)
		} else if c.Rank() == 1 {
			Recv[int](c, 0, 1)
			recvClock = c.Clock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if recvClock < 11 {
		t.Errorf("receiver clock %v, want >= 11 (10 compute + 1 latency)", recvClock)
	}
}

func TestBarrierLogCost(t *testing.T) {
	// Barrier simulated time should grow logarithmically, not linearly.
	cost := func(p int) float64 {
		w := NewWorldOpts(p, Options{Latency: 1, ByteTime: 0})
		if err := w.Run(func(c *Comm) { c.Barrier() }); err != nil {
			t.Fatal(err)
		}
		return w.SimTime()
	}
	c8, c64 := cost(8), cost(64)
	if c64 > 3*c8 {
		t.Errorf("barrier cost not logarithmic: P=8 %.0f, P=64 %.0f", c8, c64)
	}
}

func TestResetStats(t *testing.T) {
	w := NewWorld(2)
	if err := w.Run(func(c *Comm) { c.Barrier() }); err != nil {
		t.Fatal(err)
	}
	w.ResetStats()
	if w.SimTime() != 0 || w.TotalMessages() != 0 || w.TotalBytes() != 0 {
		t.Error("ResetStats did not zero counters")
	}
}

func TestSplitEven(t *testing.T) {
	xs := []int{0, 1, 2, 3, 4, 5, 6}
	parts := SplitEven(xs, 3)
	if len(parts[0]) != 3 || len(parts[1]) != 2 || len(parts[2]) != 2 {
		t.Errorf("sizes %d %d %d", len(parts[0]), len(parts[1]), len(parts[2]))
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total != 7 {
		t.Error("SplitEven lost elements")
	}
}

func TestBlockRangeCoversAll(t *testing.T) {
	f := func(n uint8, p uint8) bool {
		nn, pp := int(n), int(p%16)+1
		prev := 0
		for r := 0; r < pp; r++ {
			lo, hi := BlockRange(nn, pp, r)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
		}
		return prev == nn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWorldSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0)
}

func TestSizerPayload(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, 1, 1, sized{})
		} else {
			Recv[sized](c, 0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.TotalBytes() != 12345 {
		t.Errorf("Sizer bytes %d, want 12345", w.TotalBytes())
	}
}

type sized struct{}

func (sized) WireSize() int { return 12345 }

func TestProbeAndTryRecv(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			// Nothing waiting yet.
			if c.Probe(1, 5) {
				t.Error("probe true before send")
			}
			if _, ok := TryRecv[int](c, 1, 5); ok {
				t.Error("TryRecv got phantom message")
			}
			Send(c, 1, 9, "go")
			// Wait for the reply via blocking Recv to avoid spinning.
			if got := Recv[int](c, 1, 5); got != 42 {
				t.Errorf("reply %d", got)
			}
		} else {
			Recv[string](c, 0, 9)
			Send(c, 0, 5, 42)
			c.Barrier()
			return
		}
		c.Barrier()
		// After the barrier rank 1 has sent nothing more.
		if c.Probe(AnySource, AnyTag) {
			t.Error("probe true after drain")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTryRecvDrainsInOrder(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 5; i++ {
				Send(c, 1, 7, i)
			}
			return
		}
		// Blocking-receive the first to guarantee arrival of the rest
		// (same sender, FIFO mailbox appends before this returns only
		// for messages already sent).
		first := Recv[int](c, 0, 7)
		if first != 0 {
			t.Errorf("first %d", first)
		}
		got := []int{first}
		for len(got) < 5 {
			if v, ok := TryRecv[int](c, 0, 7); ok {
				got = append(got, v)
			}
		}
		for i, v := range got {
			if v != i {
				t.Errorf("order %v", got)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallTransposeProperty(t *testing.T) {
	// Alltoall is a matrix transpose: rank r receives in[s][r] from each
	// sender s.
	f := func(pRaw uint8, base int16) bool {
		p := int(pRaw%6) + 2
		w := NewWorld(p)
		bad := int32(0)
		err := w.Run(func(c *Comm) {
			parts := make([]int, p)
			for i := range parts {
				parts[i] = int(base) + c.Rank()*1000 + i
			}
			got := Alltoall(c, parts)
			for src := 0; src < p; src++ {
				if got[src] != int(base)+src*1000+c.Rank() {
					atomic.AddInt32(&bad, 1)
				}
			}
		})
		return err == nil && bad == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
