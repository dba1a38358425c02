package fixture

const (
	tagA = 11
	tagB = 12
	tagC = 13
)

// The simplest leak: the buffer is mutated right after being handed to
// Send. The in-process transport passed the pointer, so the receiver
// observes the new value instead of the sent one.
func leakAfterSend(c *Comm, buf []float64) {
	Send(c, 1, tagA, buf)
	buf[0] = 9 // WANT useaftersend
}

// Writing through an alias taken before the send is the same hazard:
// window views buf's backing array.
func aliasWrite(c *Comm, buf []float64) {
	window := buf[2:6]
	Send(c, 1, tagA, buf)
	window[0] = 1 // WANT useaftersend
}

// A broadcast result is the same backing array on every rank; writing it
// without a deep copy edits every rank's copy.
func sharedBcast(c *Comm, w []float64) {
	w = Bcast(c, 0, w)
	w[1] = 2 // WANT useaftersend
}

// The Allreduce *argument* is reusable after return (see good.go), but
// the *result* is the broadcast snapshot shared by every rank.
func sharedAllreduceResult(c *Comm, w []float64) {
	red := Allreduce(c, w, sumSlices)
	red[0] = 3 // WANT useaftersend
}

// The write happens inside a helper — the mutation summary carries it
// back to the call site.
func viaHelper(c *Comm, buf []float64) {
	Send(c, 1, tagA, buf)
	scale(buf, 2) // WANT useaftersend
}

func scale(xs []float64, f float64) {
	for i := range xs {
		xs[i] *= f
	}
}

// The write happens inside a method on the payload type itself.
type grid struct {
	Cells []float64
}

func (g *grid) Bump() { g.Cells[0]++ }

func viaMethod(c *Comm, g *grid) {
	Send(c, 1, tagB, g)
	g.Bump() // WANT useaftersend
}

// The send happens inside a helper — the payload fact from the helper's
// communication summary makes buf live in the caller.
func forward(c *Comm, xs []float64) {
	Send(c, 2, tagB, xs)
}

func sendViaHelper(c *Comm, buf []float64) {
	forward(c, buf)
	buf[0] = 1 // WANT useaftersend
}

// Loop wrap-around: iteration N+1's write hits the buffer iteration N
// sent. Straight-line order looks fine; the back edge does not.
func loopWrap(c *Comm, buf []float64) {
	for i := 0; i < 4; i++ {
		buf[0] = float64(i) // WANT useaftersend
		Send(c, 1, tagC, buf)
	}
}

// Clearing the buffer inside a helper is the same write as scale's.
func clearViaHelper(c *Comm, buf []float64) {
	Send(c, 1, tagA, buf)
	zero(buf) // WANT useaftersend
}

func zero(xs []float64) { clear(xs) }
