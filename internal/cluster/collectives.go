package cluster

import (
	"fmt"

	"repro/internal/obs"
)

// Collective matching: every rank must call the same sequence of
// collectives on its Comm (the usual MPI requirement). Each call consumes
// one tag from a reserved negative tag space so that collectives never
// collide with user point-to-point traffic or with each other. A group's
// collective tags come from the lower half of its namespace (see Split)
// and wrap after groupUserTags calls.
const collTagBase = -(1 << 30)

func (c *Comm) nextCollTag() int {
	seq := c.collSeq
	c.collSeq++
	if c.ns == 0 {
		return collTagBase - seq
	}
	return c.nsBase() - groupUserTags - seq%groupUserTags
}

// Algorithm selection (see docs/substrates.md for the full table):
//
//	Barrier    dissemination (any P), ~alpha*ceil(log2 P) critical path
//	Bcast      binomial tree (any P)
//	Reduce     binomial tree (any P)
//	Allreduce  recursive doubling when P is a power of two and the payload
//	           is snapshotable (scalars, strings, the common slice types,
//	           Cloner); binomial reduce+bcast otherwise
//	Allgather  recursive doubling when P is a power of two; linear
//	           gather + tree bcast otherwise
//	Gather     binomial tree (O(log P) latency at the root; forwards
//	           leaf bytes up to log P times, the classic tradeoff)
//	Scatter    binomial tree, the mirror of Gather
//	Alltoall   pairwise exchange (XOR partners for power-of-two P, ring
//	           offsets otherwise); same messages and bytes as the
//	           baseline, but deterministic partners instead of AnySource
//	Scan       linear chain, as in a textbook MPI_Scan
//
// Options.BaselineCollectives forces the reference algorithms everywhere.
// Selection depends only on world-level state (P and the option), never
// on payload sizes: sizes are rank-divergent (each rank sees only its own
// contribution), and an algorithm choice the ranks disagree on changes
// who receives from whom — a wire mismatch. MPI implementations switch on
// message size only because every rank passes the same count; this
// runtime's payloads carry no such contract.

func (c *Comm) baselineColl() bool { return c.world.opts.BaselineCollectives }

// fallbackInstant records that an optimized collective silently took its
// reference algorithm on a shape the fast path does not cover (non-pow2
// world, unsnapshotable payload). Without the marker a P=6 benchmark
// reads like recursive doubling when it actually ran the linear
// baseline; with a trace attached the downgrade is visible per call.
// The emitted instant is "coll.fallback" with the collective in the op
// kv (1 = Allreduce, 2 = Allgather) and the reason kv (1 = non-pow2
// world, 2 = payload not snapshotable). Never emitted under
// Options.BaselineCollectives: that is an explicit request, not a
// silent downgrade.
func (c *Comm) fallbackInstant(op, reason int64) {
	if c.rec != nil {
		c.rec.Instant("coll.fallback", -1, 0, 0, c.clock,
			obs.KV{K: "op", V: op}, obs.KV{K: "reason", V: reason})
	}
}

// fallbackInstant op/reason codes (obs.KV values are int64).
const (
	fallbackAllreduce = int64(1)
	fallbackAllgather = int64(2)

	fallbackNonPow2 = int64(1)
	fallbackNonSnap = int64(2)
)

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Cloner lets custom payload types opt into the recursive-doubling
// Allreduce, which must snapshot the accumulator before each exchange so
// a rank never mutates a buffer its partner is still reading.
type Cloner interface {
	// CloneWire returns a copy that shares no mutable state with the
	// receiver. The returned value must have the payload's own type.
	CloneWire() any
}

// clonePayload copies v for the recursive-doubling exchange. ok reports
// whether v's type can be copied at all; value types (scalars, strings,
// struct{}) are their own copy. spare is a dead snapshot the copy may
// reuse, or nil: a slice goes into spare's array when spare is a slice of
// v's type and length (copyInto), and box is then spare itself, so the
// copy is sent in the box it came in. box is nil for every other copy.
func clonePayload[T any](v T, spare any) (cp T, box any, ok bool) {
	switch x := any(v).(type) {
	case nil, bool, int8, uint8, int16, uint16, int32, uint32, int, uint,
		int64, uint64, uintptr, float32, float64, complex64, complex128,
		string, struct{}:
		return v, nil, true
	case []float64:
		y, box := copyInto(x, spare)
		return any(y).(T), box, true
	case []float32:
		y, box := copyInto(x, spare)
		return any(y).(T), box, true
	case []int:
		y, box := copyInto(x, spare)
		return any(y).(T), box, true
	case []int32:
		y, box := copyInto(x, spare)
		return any(y).(T), box, true
	case []int64:
		y, box := copyInto(x, spare)
		return any(y).(T), box, true
	case []uint64:
		y, box := copyInto(x, spare)
		return any(y).(T), box, true
	case []byte:
		y, box := copyInto(x, spare)
		return any(y).(T), box, true
	case []bool:
		y, box := copyInto(x, spare)
		return any(y).(T), box, true
	case Cloner:
		// Box v again rather than call through x: a method call on x would
		// make the switch's own box escape, and every copy would allocate.
		return any(v).(Cloner).CloneWire().(T), nil, true
	default:
		return v, nil, false
	}
}

// copyInto copies x into spare's array when spare is a []E of x's length
// that does not share x's array, and returns spare as the copy's box.
// Otherwise it copies x into a new array and returns a nil box. The
// shared-array test keeps a recursive-doubling round from copying its
// accumulator into itself when op returned the snapshot it received.
func copyInto[E any](x []E, spare any) ([]E, any) {
	if d, ok := spare.([]E); ok && len(d) == len(x) && (len(x) == 0 || &d[0] != &x[0]) {
		copy(d, x)
		return d, spare
	}
	return append([]E(nil), x...), nil
}

// segmentBytes models the wire size of a batch of values, element by
// element, so tree Scatter accounts exactly for what it forwards.
func segmentBytes[T any](seg []T) int {
	n := 0
	for i := range seg {
		n += byteSize(seg[i])
	}
	return n
}

// Barrier blocks until every rank has entered it. It is a dissemination
// barrier: ceil(log2 P) rounds in which rank r signals r+2^k and waits
// for r-2^k, so its simulated cost is ~alpha*ceil(log2 P) — half the
// depth of the baseline reduce+bcast tree.
func (c *Comm) Barrier() {
	c.beginColl("Barrier", -1)
	defer c.endColl()
	tag := c.nextCollTag()
	if c.baselineColl() {
		reduceTree(c, 0, tag, struct{}{}, func(a, _ struct{}) struct{} { return a })
		bcastTree(c, 0, tag, struct{}{})
		return
	}
	size := c.Size()
	var msg message
	for off := 1; off < size; off <<= 1 {
		c.send((c.rank+off)%size, tag, struct{}{})
		c.recvRaw((c.rank-off+size)%size, tag, &msg)
	}
}

// Bcast distributes root's value to every rank along a binomial tree and
// returns it. Non-root ranks pass their (ignored) local v.
func Bcast[T any](c *Comm, root int, v T) T {
	c.beginColl("Bcast", root)
	defer c.endColl()
	return bcastTree(c, root, c.nextCollTag(), v)
}

// Reduce folds every rank's contribution with op along a binomial tree.
// The reduced value is returned on root; other ranks get their partial
// (which callers should ignore). op must be associative and commutative;
// it may mutate and return its first argument.
func Reduce[T any](c *Comm, root int, v T, op func(a, b T) T) T {
	c.beginColl("Reduce", root)
	defer c.endColl()
	return reduceTree(c, root, c.nextCollTag(), v, op)
}

// Allreduce folds every rank's contribution with op and returns the fully
// reduced value on every rank. For power-of-two worlds with snapshotable
// payloads it runs recursive doubling (log2 P rounds, half the baseline's
// critical path); otherwise it falls back to reduce-to-0 plus broadcast.
// op must be associative and commutative (exactly commutative for
// bit-identical results on every rank); it may mutate and return its
// first argument. op must not keep its second argument after it returns:
// that is a snapshot the runtime recycles for a later message.
func Allreduce[T any](c *Comm, v T, op func(a, b T) T) T {
	c.beginColl("Allreduce", -1)
	defer c.endColl()
	tag := c.nextCollTag()
	size := c.Size()
	if !c.baselineColl() && size > 1 {
		if !isPow2(size) {
			c.fallbackInstant(fallbackAllreduce, fallbackNonPow2)
		} else if acc, _, ok := clonePayload(v, nil); ok {
			// The gate's clone doubles as the private accumulator: ops
			// commonly mutate and return their first operand, and the
			// payload-reuse contract promises the caller's argument stays
			// read-only and unaliased by the result.
			return rdAllreduce(c, tag, acc, op)
		} else {
			c.fallbackInstant(fallbackAllreduce, fallbackNonSnap)
		}
	}
	r := reduceTree(c, 0, tag, v, op)
	if c.rank == 0 {
		// The reduced value may alias the caller's payload (reduction ops
		// commonly fold in place and return their first operand), so the
		// root broadcasts a snapshot. Together with the recursive-doubling
		// path, which only ever sends clones, this makes the Allreduce
		// payload argument reusable as soon as the call returns — the
		// contract the analyzer's ownership and hotalloc rules rely on.
		if snap, _, ok := clonePayload(r, nil); ok {
			r = snap
		}
	}
	return bcastTree(c, 0, tag, r)
}

// rdAllreduce is the recursive-doubling exchange: in round k every rank
// swaps accumulators with rank^2^k and folds. acc must already be a
// private copy of the caller's payload (Allreduce's snapshotability gate
// makes it), so the fold never touches the caller's buffer; it becomes
// the result. Each rank sends a snapshot of its accumulator, never the
// live value, because op may mutate its first argument in place while
// the partner is still reading what it received — the in-process,
// zero-copy analogue of MPI's private buffers.
//
// Snapshots are recycled. Once op has folded in the snapshot a round
// received, that snapshot is dead, unless op returned it, and the copy
// of the new accumulator goes into it (copyInto checks for the array op
// returned). That copy is the next round's snapshot, or, after the last
// round, the one the rank keeps in spare for its next call's first
// round. A steady-state call thus allocates only its result.
func rdAllreduce[T any](c *Comm, tag int, acc T, op func(a, b T) T) T {
	box := snapshot(acc, c.spare)
	var msg message
	for mask := 1; mask < c.Size(); mask <<= 1 {
		partner := c.rank ^ mask
		c.send(partner, tag, box)
		c.recvRaw(partner, tag, &msg)
		acc = op(acc, msg.payload.(T))
		box = snapshot(acc, msg.payload)
	}
	c.spare = box
	return acc
}

// snapshot copies acc for sending, into spare when clonePayload can
// reuse it, and returns the copy boxed: in spare's own box, or in the
// one boxing a new copy needs.
func snapshot[T any](acc T, spare any) any {
	cp, box, ok := clonePayload(acc, spare)
	if !ok {
		panic(fmt.Sprintf("cluster: Allreduce payload became unsnapshotable mid-collective (%T)", acc))
	}
	if box == nil {
		return cp
	}
	return box
}

// Gather collects one value from every rank. On root it returns a slice
// indexed by rank; on other ranks it returns nil. Contributions ride a
// binomial tree: the root absorbs O(log P) aggregated messages instead of
// P-1 serial ones.
func Gather[T any](c *Comm, root int, v T) []T {
	c.beginColl("Gather", root)
	defer c.endColl()
	tag := c.nextCollTag()
	if c.baselineColl() || c.Size() == 1 {
		return gatherLinear(c, root, tag, v)
	}
	return gatherTree(c, root, tag, v)
}

func gatherLinear[T any](c *Comm, root, tag int, v T) []T {
	if c.rank != root {
		c.send(root, tag, v)
		return nil
	}
	out := make([]T, c.Size())
	out[root] = v
	var msg message
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		c.recvRaw(r, tag, &msg)
		out[r] = msg.payload.(T)
	}
	return out
}

// gatherTree runs the binomial gather on root-relative ranks: each
// subtree leader accumulates the contiguous segment of relative ranks it
// covers and forwards it to its parent in one message. The segment is
// sized to the subtree once: relative ranks [rel, rel+lowbit(rel)), cut
// off at size, and all of them at the root. Its modeled size is this
// rank's value plus the sizes of the segments it received.
func gatherTree[T any](c *Comm, root, tag int, v T) []T {
	size := c.Size()
	rel := (c.rank - root + size) % size
	span := size
	if rel != 0 {
		span = min(rel&-rel, size-rel)
	}
	seg := make([]T, 1, span)
	seg[0] = v // seg[i] holds relative rank rel+i's value
	bytes := 0
	var msg message
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask != 0 {
			dst := ((rel &^ mask) + root) % size
			c.sendRaw(dst, tag, seg, bytes+byteSize(v))
			return nil
		}
		srcRel := rel | mask
		if srcRel < size {
			c.recvRaw((srcRel+root)%size, tag, &msg)
			seg = append(seg, msg.payload.([]T)...)
			bytes += msg.bytes
		}
	}
	out := make([]T, size)
	for i, x := range seg {
		out[(i+root)%size] = x
	}
	return out
}

// Allgather collects one value from every rank and returns the full
// rank-indexed slice on every rank. Power-of-two worlds run recursive
// doubling (log2 P rounds of block exchanges); otherwise it is a linear
// gather to rank 0 followed by a tree broadcast.
func Allgather[T any](c *Comm, v T) []T {
	c.beginColl("Allgather", -1)
	defer c.endColl()
	tag := c.nextCollTag()
	size := c.Size()
	if c.baselineColl() || size == 1 || !isPow2(size) {
		if !c.baselineColl() && size > 1 {
			c.fallbackInstant(fallbackAllgather, fallbackNonPow2)
		}
		return allgatherLinear(c, tag, v)
	}
	out := make([]T, size)
	out[c.rank] = v
	bytes := byteSize(v) // this rank's block: its own value and every block it received
	var msg message
	for mask := 1; mask < size; mask <<= 1 {
		partner := c.rank ^ mask
		myBase := c.rank &^ (mask - 1)
		seg := out[myBase : myBase+mask]
		// The partner only reads this window, and this rank never writes
		// inside its own (growing) block again, so sharing the live slice
		// is race-free.
		c.sendRaw(partner, tag, seg, bytes)
		c.recvRaw(partner, tag, &msg)
		copy(out[partner&^(mask-1):], msg.payload.([]T))
		bytes += msg.bytes
	}
	return out
}

func allgatherLinear[T any](c *Comm, tag int, v T) []T {
	var all []T
	if c.rank != 0 {
		c.send(0, tag, v)
	} else {
		all = make([]T, c.Size())
		all[0] = v
		var msg message
		for r := 1; r < c.Size(); r++ {
			c.recvRaw(r, tag, &msg)
			all[r] = msg.payload.(T)
		}
	}
	return bcastTree(c, 0, tag, all)
}

// Scatter distributes parts[r] from root to rank r and returns this rank's
// part. Only root's parts argument is consulted; it must have length Size.
// Parts ride a binomial tree: the root hands off halves instead of P-1
// serial sends.
func Scatter[T any](c *Comm, root int, parts []T) T {
	c.beginColl("Scatter", root)
	defer c.endColl()
	tag := c.nextCollTag()
	size := c.Size()
	if c.rank == root && len(parts) != size {
		panic(fmt.Sprintf("cluster: Scatter needs %d parts, got %d", size, len(parts)))
	}
	if size == 1 {
		return parts[root]
	}
	if c.baselineColl() {
		return scatterLinear(c, root, tag, parts)
	}
	return scatterTree(c, root, tag, parts)
}

func scatterLinear[T any](c *Comm, root, tag int, parts []T) T {
	if c.rank == root {
		for r := 0; r < c.Size(); r++ {
			if r == root {
				continue
			}
			c.send(r, tag, parts[r])
		}
		return parts[root]
	}
	var msg message
	c.recvRaw(root, tag, &msg)
	return msg.payload.(T)
}

// scatterTree is the binomial mirror of gatherTree: the root peels off
// the top half of the (root-relative) parts for its highest child, that
// child recurses, and so on; each rank ends holding the segment that
// starts with its own part.
func scatterTree[T any](c *Comm, root, tag int, parts []T) T {
	size := c.Size()
	rel := (c.rank - root + size) % size
	var seg []T // covers relative ranks [rel, rel+len(seg))
	mask := 1
	if rel == 0 {
		seg = make([]T, size)
		for i := range seg {
			seg[i] = parts[(i+root)%size]
		}
		for mask < size {
			mask <<= 1
		}
	} else {
		for mask < size {
			if rel&mask != 0 {
				parent := ((rel &^ mask) + root) % size
				var msg message
				c.recvRaw(parent, tag, &msg)
				seg = msg.payload.([]T)
				break
			}
			mask <<= 1
		}
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < size && mask < len(seg) {
			end := 2 * mask
			if end > len(seg) {
				end = len(seg)
			}
			sub := seg[mask:end]
			c.sendRaw((rel+mask+root)%size, tag, sub, segmentBytes(sub))
			seg = seg[:mask]
		}
	}
	return seg[0]
}

// Alltoall performs a total exchange: parts[i] is delivered to rank i, and
// the returned slice holds what every rank sent to this one, indexed by
// source rank. The exchange is pairwise — round i pairs this rank with a
// deterministic partner — so every receive names its source and the
// mailbox matches it in O(1), instead of the baseline's AnySource scans.
// Message and byte counts are identical to the baseline.
func Alltoall[T any](c *Comm, parts []T) []T {
	size := c.Size()
	if len(parts) != size {
		panic(fmt.Sprintf("cluster: Alltoall needs %d parts, got %d", size, len(parts)))
	}
	c.beginColl("Alltoall", -1)
	defer c.endColl()
	tag := c.nextCollTag()
	out := make([]T, size)
	out[c.rank] = parts[c.rank]
	var msg message
	switch {
	case c.baselineColl():
		for r := 0; r < size; r++ {
			if r == c.rank {
				continue
			}
			c.send(r, tag, parts[r])
		}
		for i := 0; i < size-1; i++ {
			c.recvRaw(AnySource, tag, &msg)
			out[msg.src] = msg.payload.(T)
		}
	case isPow2(size):
		for i := 1; i < size; i++ {
			partner := c.rank ^ i
			c.send(partner, tag, parts[partner])
			c.recvRaw(partner, tag, &msg)
			out[partner] = msg.payload.(T)
		}
	default:
		for i := 1; i < size; i++ {
			dst := (c.rank + i) % size
			src := (c.rank - i + size) % size
			c.send(dst, tag, parts[dst])
			c.recvRaw(src, tag, &msg)
			out[src] = msg.payload.(T)
		}
	}
	return out
}

// Scan computes the inclusive prefix reduction: rank r receives
// op(v_0, ..., v_r). The chain is linear, as in a textbook MPI_Scan.
func Scan[T any](c *Comm, v T, op func(a, b T) T) T {
	c.beginColl("Scan", -1)
	defer c.endColl()
	tag := c.nextCollTag()
	acc := v
	if c.rank > 0 {
		var msg message
		c.recvRaw(c.rank-1, tag, &msg)
		acc = op(msg.payload.(T), v)
	}
	if c.rank < c.Size()-1 {
		c.send(c.rank+1, tag, acc)
	}
	return acc
}

// bcastTree is a binomial-tree broadcast rooted at root using tag.
func bcastTree[T any](c *Comm, root, tag int, v T) T {
	size := c.Size()
	rel := (c.rank - root + size) % size
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			parent := ((rel &^ mask) + root) % size
			var msg message
			c.recvRaw(parent, tag, &msg)
			v = msg.payload.(T)
			break
		}
		mask <<= 1
	}
	var box any // v, boxed once for all of this rank's children
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < size {
			if box == nil {
				box = v
			}
			dst := (rel + mask + root) % size
			c.send(dst, tag, box)
		}
	}
	return v
}

// reduceTree is a binomial-tree reduction to root using tag.
func reduceTree[T any](c *Comm, root, tag int, v T, op func(a, b T) T) T {
	size := c.Size()
	rel := (c.rank - root + size) % size
	acc := v
	var msg message
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask == 0 {
			srcRel := rel | mask
			if srcRel < size {
				c.recvRaw((srcRel+root)%size, tag, &msg)
				acc = op(acc, msg.payload.(T))
			}
		} else {
			dst := ((rel &^ mask) + root) % size
			c.send(dst, tag, acc)
			break
		}
	}
	return acc
}

// SumFloat64s is a ready-made op for Allreduce/Reduce over []float64: it
// adds b into a elementwise and returns a.
func SumFloat64s(a, b []float64) []float64 {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// SumInt64s adds b into a elementwise and returns a.
func SumInt64s(a, b []int64) []int64 {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// SplitEven cuts xs into parts contiguous chunks whose sizes differ by at
// most one (the first len(xs)%parts chunks get the extra element). It is
// the canonical block decomposition used throughout the assignments.
func SplitEven[T any](xs []T, parts int) [][]T {
	out := make([][]T, parts)
	n := len(xs)
	q, r := n/parts, n%parts
	lo := 0
	for p := 0; p < parts; p++ {
		sz := q
		if p < r {
			sz++
		}
		out[p] = xs[lo : lo+sz]
		lo += sz
	}
	return out
}

// BlockRange returns the [lo, hi) index range that block decomposition
// assigns to rank r of size parts over n items.
func BlockRange(n, parts, r int) (lo, hi int) {
	q, rem := n/parts, n%parts
	lo = r*q + min(r, rem)
	hi = lo + q
	if r < rem {
		hi++
	}
	return lo, hi
}
