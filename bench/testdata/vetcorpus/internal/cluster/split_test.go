package cluster

import (
	"sync"
	"testing"
)

func TestSplitGroupsByColor(t *testing.T) {
	const P = 6
	w := NewWorld(P)
	var mu sync.Mutex
	groupOf := map[int][2]int{} // parent rank -> (group size, group rank)
	err := w.Run(func(c *Comm) {
		sub := c.Split(c.Rank()%2, c.Rank())
		mu.Lock()
		groupOf[c.Rank()] = [2]int{sub.Size(), sub.Rank()}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, gs := range groupOf {
		if gs[0] != 3 {
			t.Errorf("rank %d group size %d", rank, gs[0])
		}
		if want := rank / 2; gs[1] != want {
			t.Errorf("rank %d group rank %d want %d", rank, gs[1], want)
		}
	}
}

func TestSplitKeyOrdersGroup(t *testing.T) {
	const P = 4
	w := NewWorld(P)
	err := w.Run(func(c *Comm) {
		// Reverse ordering via key.
		sub := c.Split(0, -c.Rank())
		if want := P - 1 - c.Rank(); sub.Rank() != want {
			t.Errorf("rank %d got group rank %d want %d", c.Rank(), sub.Rank(), want)
		}
		if sub.ParentRank(sub.Rank()) != c.Rank() {
			t.Error("ParentRank round trip failed")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitNegativeColorOptsOut(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) {
		color := 0
		if c.Rank() == 2 {
			color = -1
		}
		sub := c.Split(color, 0)
		if c.Rank() == 2 {
			if sub != nil {
				t.Error("negative color returned a communicator")
			}
			return
		}
		if sub.Size() != 2 {
			t.Errorf("group size %d", sub.Size())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubCollectives(t *testing.T) {
	const P = 8
	w := NewWorld(P)
	err := w.Run(func(c *Comm) {
		sub := c.Split(c.Rank()/4, c.Rank()) // two groups of 4
		// Allreduce within the group: sum of parent ranks.
		got := AllreduceSub(sub, c.Rank(), func(a, b int) int { return a + b })
		want := 0 + 1 + 2 + 3
		if c.Rank() >= 4 {
			want = 4 + 5 + 6 + 7
		}
		if got != want {
			t.Errorf("rank %d group allreduce %d want %d", c.Rank(), got, want)
		}
		// Bcast from the group root.
		v := BcastSub(sub, 0, c.Rank()*10)
		wantB := sub.ParentRank(0) * 10
		if v != wantB {
			t.Errorf("rank %d group bcast %d want %d", c.Rank(), v, wantB)
		}
		// Gather onto group rank 1.
		all := GatherSub(sub, 1, c.Rank())
		if sub.Rank() == 1 {
			if len(all) != 4 {
				t.Errorf("gather size %d", len(all))
			}
		} else if all != nil {
			t.Error("non-root gather non-nil")
		}
		sub.BarrierSub()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubP2PDoesNotCollideWithParent(t *testing.T) {
	const P = 4
	w := NewWorld(P)
	err := w.Run(func(c *Comm) {
		sub := c.Split(0, c.Rank())
		if c.Rank() == 0 {
			Send(c, 1, 5, "parent")
			SendSub(sub, 1, 5, "sub")
		}
		if c.Rank() == 1 {
			// Receive in the opposite order: tags must not collide.
			got := RecvSub[string](sub, 0, 5)
			if got != "sub" {
				t.Errorf("sub recv %q", got)
			}
			got = Recv[string](c, 0, 5)
			if got != "parent" {
				t.Errorf("parent recv %q", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalReduction(t *testing.T) {
	// The §2 pattern: local reduction within each "node" (group), then a
	// global reduction of the group roots.
	const P = 8
	w := NewWorld(P)
	var result int
	err := w.Run(func(c *Comm) {
		node := c.Split(c.Rank()/4, c.Rank())
		local := ReduceSub(node, 0, 1, func(a, b int) int { return a + b })
		leaders := c.Split(map[bool]int{true: 0, false: -1}[node.Rank() == 0], c.Rank())
		if node.Rank() == 0 {
			total := AllreduceSub(leaders, local, func(a, b int) int { return a + b })
			if c.Rank() == 0 {
				result = total
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if result != P {
		t.Errorf("hierarchical reduction = %d, want %d", result, P)
	}
}

func TestSendRecvExchange(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		partner := 1 - c.Rank()
		got := SendRecv(c, partner, 3, c.Rank()*100)
		if got != partner*100 {
			t.Errorf("rank %d exchanged %d", c.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubTagValidation(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		sub := c.Split(0, c.Rank())
		if c.Rank() == 0 {
			defer func() {
				if recover() == nil {
					t.Error("oversized sub tag accepted")
				}
				// Unblock rank 1's Split-free wait by sending nothing
				// further; world ends after both return.
			}()
			SendSub(sub, 1, 1<<20, "x")
		}
	})
	// The panic on rank 0 is recovered inside the rank body, so Run
	// should not report an error.
	if err != nil {
		t.Fatal(err)
	}
}
