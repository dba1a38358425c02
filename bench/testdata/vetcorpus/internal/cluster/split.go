package cluster

import (
	"fmt"
	"sort"
)

// Split partitions the ranks of c into disjoint sub-communicators, as
// MPI_Comm_split does: ranks passing the same color land in the same
// group, ordered by key (ties by parent rank). Every rank of the parent
// must call Split collectively. The returned SubComm routes through the
// parent's mailboxes in a reserved tag space, so parent and child traffic
// never collide. A negative color returns nil (the rank opts out, like
// MPI_UNDEFINED).
//
// The teaching cluster uses sub-communicators for, e.g., per-node local
// reductions before a global one (the hierarchy §2 alludes to with "local
// reductions ... again at each multicore node").
func (c *Comm) Split(color, key int) *SubComm {
	c.beginColl("Split", -1)
	mine := splitEntry{color, key, c.rank}
	all := Allgather(c, mine)
	c.endColl()

	if color < 0 {
		return nil
	}
	var members []splitEntry
	for _, e := range all {
		if e.Color == color {
			members = append(members, e)
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].Key != members[j].Key {
			return members[i].Key < members[j].Key
		}
		return members[i].Rank < members[j].Rank
	})
	ranks := make([]int, len(members))
	myIndex := -1
	for i, e := range members {
		ranks[i] = e.Rank
		if e.Rank == c.rank {
			myIndex = i
		}
	}
	// Sub-communicator instances on a rank are distinguished by a
	// generation number folded into the tag space; collectives inside the
	// group consume group-collective tags.
	c.subGen++
	return &SubComm{parent: c, rank: myIndex, ranks: ranks, gen: c.subGen}
}

// splitEntry is Split's Allgather payload. Package-level (not a function
// local) with exported fields so it can cross the net device's gob wire;
// it is registered in netdev.go's init.
type splitEntry struct{ Color, Key, Rank int }

// SubComm is a communicator over a subset of a World's ranks. Rank ids are
// renumbered 0..Size-1 within the group.
type SubComm struct {
	parent *Comm
	rank   int
	ranks  []int // group rank -> parent rank
	gen    int

	collSeq int
}

// Rank returns this rank's id within the group.
func (s *SubComm) Rank() int { return s.rank }

// Size returns the group size.
func (s *SubComm) Size() int { return len(s.ranks) }

// Parent returns the underlying world communicator.
func (s *SubComm) Parent() *Comm { return s.parent }

// ParentRank translates a group rank to the parent world rank.
func (s *SubComm) ParentRank(groupRank int) int { return s.ranks[groupRank] }

// Sub-communicator tags live far below the collective tag space. Layout:
// subTagBase - gen*2^20 - seq.
const subTagBase = -(1 << 40)

func (s *SubComm) tag(user int) int {
	if user < 0 || user >= 1<<18 {
		panic(fmt.Sprintf("cluster: sub-communicator tag %d outside [0, 2^18)", user))
	}
	return subTagBase - s.gen*(1<<20) - user
}

func (s *SubComm) nextCollTag() int {
	t := s.tag(1<<18 - 1 - s.collSeq%(1<<17))
	s.collSeq++
	return t
}

// SendSub delivers v to group rank dst with a group-scoped tag.
func SendSub[T any](s *SubComm, dst, tag int, v T) {
	Send(s.parent, s.ranks[dst], s.tag(tag), v)
}

// RecvSub receives from group rank src with a group-scoped tag.
func RecvSub[T any](s *SubComm, src, tag int) T {
	return Recv[T](s.parent, s.ranks[src], s.tag(tag))
}

// BarrierSub blocks until every group member has entered.
func (s *SubComm) BarrierSub() {
	s.parent.beginColl("BarrierSub", -1)
	defer s.parent.endColl()
	tag := s.nextCollTag()
	subReduceTree(s, 0, tag, struct{}{}, func(a, _ struct{}) struct{} { return a })
	subBcastTree(s, 0, tag, struct{}{})
}

// BcastSub broadcasts root's value within the group.
func BcastSub[T any](s *SubComm, root int, v T) T {
	s.parent.beginColl("BcastSub", root)
	defer s.parent.endColl()
	return subBcastTree(s, root, s.nextCollTag(), v)
}

// ReduceSub folds the group's contributions onto the group root.
func ReduceSub[T any](s *SubComm, root int, v T, op func(a, b T) T) T {
	s.parent.beginColl("ReduceSub", root)
	defer s.parent.endColl()
	return subReduceTree(s, root, s.nextCollTag(), v, op)
}

// AllreduceSub gives every group member the fully reduced value.
func AllreduceSub[T any](s *SubComm, v T, op func(a, b T) T) T {
	s.parent.beginColl("AllreduceSub", -1)
	defer s.parent.endColl()
	tag := s.nextCollTag()
	r := subReduceTree(s, 0, tag, v, op)
	if s.rank == 0 {
		// Same payload-reuse contract as Allreduce: the reduced value may
		// alias the caller's payload, so the group root broadcasts a
		// snapshot instead of the live buffer.
		if snap, ok := clonePayload(r); ok {
			r = snap
		}
	}
	return subBcastTree(s, 0, tag, r)
}

// GatherSub collects one value per group member onto the group root via
// the binomial gather tree on root-relative group ranks: each subtree
// leader accumulates the contiguous segment of relative ranks it covers
// and forwards it to its parent in one message, O(log |group|) rounds
// instead of |group|-1 serialized receives at the root.
func GatherSub[T any](s *SubComm, root int, v T) []T {
	s.parent.beginColl("GatherSub", root)
	defer s.parent.endColl()
	tag := s.nextCollTag()
	size := s.Size()
	rel := (s.rank - root + size) % size
	seg := make([]T, 1, 2)
	seg[0] = v // seg[i] holds relative group rank rel+i's value
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask != 0 {
			dst := ((rel &^ mask) + root) % size
			// Raw ops, as in gatherTree: seg is handed off exactly once
			// and never touched again, and segmentBytes models the real
			// segment size on the wire.
			s.parent.sendRaw(s.ranks[dst], tag, seg, segmentBytes(seg))
			return nil
		}
		srcRel := rel | mask
		if srcRel < size {
			msg := s.parent.recvRaw(s.ranks[(srcRel+root)%size], tag)
			seg = append(seg, msg.payload.([]T)...)
		}
	}
	out := make([]T, size)
	for i, x := range seg {
		out[(i+root)%size] = x
	}
	return out
}

func subBcastTree[T any](s *SubComm, root, tag int, v T) T {
	size := s.Size()
	rel := (s.rank - root + size) % size
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			parent := ((rel &^ mask) + root) % size
			v = Recv[T](s.parent, s.ranks[parent], tag)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < size {
			dst := (rel + mask + root) % size
			Send(s.parent, s.ranks[dst], tag, v)
		}
	}
	return v
}

func subReduceTree[T any](s *SubComm, root, tag int, v T, op func(a, b T) T) T {
	size := s.Size()
	rel := (s.rank - root + size) % size
	acc := v
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask == 0 {
			srcRel := rel | mask
			if srcRel < size {
				part := Recv[T](s.parent, s.ranks[(srcRel+root)%size], tag)
				acc = op(acc, part)
			}
		} else {
			dst := ((rel &^ mask) + root) % size
			Send(s.parent, s.ranks[dst], tag, acc)
			break
		}
	}
	return acc
}

// SendRecv performs a simultaneous exchange with a partner rank on the
// parent communicator (the halo-exchange primitive): it posts the send,
// then blocks on the matching receive, which cannot deadlock under this
// runtime's buffered sends.
func SendRecv[T any](c *Comm, partner, tag int, v T) T {
	Send(c, partner, tag, v)
	return Recv[T](c, partner, tag)
}
