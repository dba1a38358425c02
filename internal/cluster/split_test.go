package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
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
		// Group rank g must be world rank P-1-g on every member.
		for g, r := range Allgather(sub, c.Rank()) {
			if r != P-1-g {
				t.Errorf("rank %d: group rank %d is world rank %d, want %d", c.Rank(), g, r, P-1-g)
			}
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
		// Allreduce within the group: sum of world ranks.
		got := Allreduce(sub, c.Rank(), func(a, b int) int { return a + b })
		want := 0 + 1 + 2 + 3
		if c.Rank() >= 4 {
			want = 4 + 5 + 6 + 7
		}
		if got != want {
			t.Errorf("rank %d group allreduce %d want %d", c.Rank(), got, want)
		}
		// Bcast from the group root, world rank 0 or 4.
		v := Bcast(sub, 0, c.Rank()*10)
		wantB := c.Rank() / 4 * 40
		if v != wantB {
			t.Errorf("rank %d group bcast %d want %d", c.Rank(), v, wantB)
		}
		// Gather onto group rank 1.
		all := Gather(sub, 1, c.Rank())
		if sub.Rank() == 1 {
			if len(all) != 4 {
				t.Errorf("gather size %d", len(all))
			}
		} else if all != nil {
			t.Error("non-root gather non-nil")
		}
		sub.Barrier()
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
			Send(sub, 1, 5, "sub")
		}
		if c.Rank() == 1 {
			// Receive in the opposite order: tags must not collide.
			got := Recv[string](sub, 0, 5)
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
		local := Reduce(node, 0, 1, func(a, b int) int { return a + b })
		leaders := c.Split(map[bool]int{true: 0, false: -1}[node.Rank() == 0], c.Rank())
		if node.Rank() == 0 {
			total := Allreduce(leaders, local, func(a, b int) int { return a + b })
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
	// Verify bounds the AnyTag receive, should it ever be accepted.
	opts := VerifyOptions()
	opts.VerifyTimeout = time.Second
	w := NewWorldOpts(2, opts)
	err := w.Run(func(c *Comm) {
		sub := c.Split(0, c.Rank())
		if c.Rank() != 0 {
			return
		}
		for _, tc := range []struct {
			name string
			call func()
			want string
		}{
			{"oversized tag", func() { Send(sub, 1, 1<<20, "x") }, "outside [0, 2^19)"},
			{"negative tag", func() { Send(sub, 1, -2, "x") }, "outside [0, 2^19)"},
			{"AnyTag receive", func() { Recv[string](sub, 1, AnyTag) }, "AnyTag is not supported on a group"},
			{"AnyTag probe", func() { sub.Probe(AnySource, AnyTag) }, "AnyTag is not supported on a group"},
		} {
			func() {
				defer func() {
					p := recover()
					if msg, _ := p.(string); !strings.Contains(msg, tc.want) {
						t.Errorf("%s: panic %v, want one containing %q", tc.name, p, tc.want)
					}
				}()
				tc.call()
			}()
		}
	})
	// The panics on rank 0 are recovered inside the rank body, so Run
	// should not report an error.
	if err != nil {
		t.Fatal(err)
	}
}

// TestGroupUserTagsSkipCollectiveTags is the regression test for group
// user tags overlapping group collective tags: a message on the highest
// user tags, still pending while the group runs a Barrier, must not be
// matched by the Barrier. 1<<18-1 is the tag the first group collective
// used to draw.
func TestGroupUserTagsSkipCollectiveTags(t *testing.T) {
	for _, opts := range []Options{DefaultOptions(), VerifyOptions()} {
		w := NewWorldOpts(3, opts)
		err := w.Run(func(c *Comm) {
			g := c.Split(0, c.Rank())
			tags := []int{1<<18 - 1, groupUserTags - 1}
			if g.Rank() == 0 {
				for _, tag := range tags {
					Send(g, 1, tag, fmt.Sprint("x", tag))
				}
			}
			g.Barrier()
			if g.Rank() == 1 {
				for _, tag := range tags {
					if got, want := Recv[string](g, 0, tag), fmt.Sprint("x", tag); got != want {
						t.Errorf("tag %d: got %q want %q", tag, got, want)
					}
				}
			}
		})
		if err != nil {
			t.Fatalf("verify=%v: %v", opts.Verify, err)
		}
	}
}

// TestGroupAnySource checks that a group receive from AnySource reports
// the sender as a group rank, and that Probe, ProbeNext and TryRecv on a
// group see only that group's traffic.
func TestGroupAnySource(t *testing.T) {
	const P = 5
	w := NewWorld(P)
	err := w.Run(func(c *Comm) {
		// Odd world ranks in reverse order: world 3 -> group 0, 1 -> 1.
		g := c.Split(map[bool]int{true: 0, false: -1}[c.Rank()%2 == 1], -c.Rank())
		if c.Rank() == 0 {
			Send(c, 1, 4, "world") // same user tag, other communicator
		}
		if g == nil {
			return
		}
		if g.Rank() == 0 {
			Send(g, 1, 4, "group")
			return
		}
		if src, tag, ok := g.ProbeNext(AnySource, 4); ok && (src != 0 || tag != 4) {
			t.Errorf("ProbeNext = (%d, %d), want (0, 4)", src, tag)
		}
		got, src := RecvFrom[string](g, AnySource, 4)
		if got != "group" || src != 0 {
			t.Errorf("group RecvFrom = (%q, %d), want (\"group\", 0)", got, src)
		}
		if g.Probe(0, 4) {
			t.Error("group probe sees world traffic")
		}
		if _, ok := TryRecv[string](g, AnySource, 4); ok {
			t.Error("group TryRecv took world traffic")
		}
		if got := Recv[string](c, 0, 4); got != "world" {
			t.Errorf("world recv %q", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
