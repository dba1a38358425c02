package cluster

import (
	"fmt"
	"sort"
)

// Split partitions the ranks of c into disjoint groups, as MPI_Comm_split
// does: ranks passing the same color land in the same group, ordered by
// key (ties by rank in c). Every rank of c must call Split collectively.
// The returned group is an ordinary Comm, with every collective, that
// shares its rank's clock, counters and trace with c; its traffic lives
// in a tag namespace of its own, so it never collides with c's or any
// other group's. A negative color returns nil (the rank opts out, like
// MPI_UNDEFINED).
//
// The teaching cluster uses groups for, e.g., per-node local reductions
// before a global one (the hierarchy §2 alludes to with "local
// reductions ... again at each multicore node").
func (c *Comm) Split(color, key int) *Comm {
	c.beginColl("Split", -1)
	all := Allgather(c, splitEntry{color, key, c.rank, c.lastNS + 1})
	c.endColl()

	// Namespace agreement: every rank offers the next id it has not used
	// and all take the max, which is then free on every participant. The
	// groups of one Split share it; their memberships are disjoint.
	ns := 0
	for _, e := range all {
		ns = max(ns, e.NS)
	}
	c.lastNS = ns
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
	g := &Comm{rankState: c.rankState, ranks: make([]int, len(members)), ns: ns}
	for i, e := range members {
		g.ranks[i] = c.toWorld(e.Rank)
		if e.Rank == c.rank {
			g.rank = i
		}
	}
	return g
}

// splitEntry is Split's Allgather payload. Package-level (not a function
// local) with exported fields so it can cross the net device's gob wire;
// it is registered in netdev.go's init.
type splitEntry struct{ Color, Key, Rank, NS int }

// Group tag namespaces live far below the world's collective tags.
// Namespace ns >= 1 owns the groupTagSpan tags below nsBase(): user tags
// take the upper half and collective tags the lower half, so a group's
// point-to-point traffic can never match its own collectives.
const (
	groupTagBase  = -(1 << 40)
	groupTagSpan  = 1 << 20
	groupUserTags = groupTagSpan / 2
)

func (c *Comm) nsBase() int { return groupTagBase - c.ns*groupTagSpan }

// userTag folds a point-to-point tag into c's namespace. World tags pass
// through unchanged. A group's user tags must lie in [0, groupUserTags):
// AnyTag is rejected there, because a wildcard matches the world's user
// tags (tagMatches), not the group's.
func (c *Comm) userTag(tag int) int {
	if c.ns == 0 {
		return tag
	}
	if tag == AnyTag {
		panic("cluster: AnyTag is not supported on a group communicator; receive on a concrete tag")
	}
	if tag < 0 || tag >= groupUserTags {
		panic(fmt.Sprintf("cluster: group communicator tag %d outside [0, 2^19)", tag))
	}
	return c.nsBase() - tag
}

// SendRecv performs a simultaneous exchange with a partner rank (the
// halo-exchange primitive): it posts the send, then blocks on the
// matching receive, which cannot deadlock under this runtime's buffered
// sends.
func SendRecv[T any](c *Comm, partner, tag int, v T) T {
	Send(c, partner, tag, v)
	return Recv[T](c, partner, tag)
}
