package fixture

// hoistMe allocates the reduction buffer on every iteration: the
// canonical hot-loop pattern the rule exists for.
func hoistMe(c *Comm, rounds int) {
	for it := 0; it < rounds; it++ {
		buf := make([]float64, 128) // WANT hotalloc
		buf[0] = float64(it)
		Send(c, 1, 7, buf)
	}
}

// growsForever re-sends a slice that grows by plain append each round.
func growsForever(c *Comm, xs []float64) {
	var acc []float64
	for _, x := range xs {
		acc = append(acc, x) // WANT hotalloc
		acc = Allreduce(c, acc, sum)
	}
}

// literalEveryTime builds a fresh slice literal per iteration.
func literalEveryTime(c *Comm, n int) {
	for i := 0; i < n; i++ {
		row := []int{i, i + 1} // WANT hotalloc
		Send(c, 1, 9, row)
	}
}

// boxed converts to an interface at the payload argument every round.
func boxed(c *Comm, n int) {
	v := 3
	for i := 0; i < n; i++ {
		Send(c, 1, 11, any(v)) // WANT hotalloc
	}
}

// forward performs the send for its caller; its summary records that the
// buf parameter flows into the Send payload.
func forward(c *Comm, buf []float64) {
	Send(c, 1, 13, buf)
}

// viaHelper's allocation reaches the wire through forward — the
// interprocedural payload fact.
func viaHelper(c *Comm, n int) {
	for i := 0; i < n; i++ {
		scratch := make([]float64, 64) // WANT hotalloc
		scratch[0] = 1
		forward(c, scratch)
	}
}

// newBuf returns a fresh allocation on every path.
func newBuf(n int) []float64 {
	return make([]float64, n)
}

// allocInHelper's allocation happens inside the callee — the
// interprocedural allocation fact.
func allocInHelper(c *Comm, n int) {
	for i := 0; i < n; i++ {
		b := newBuf(64) // WANT hotalloc
		b[0] = 2
		Send(c, 1, 15, b)
	}
}
