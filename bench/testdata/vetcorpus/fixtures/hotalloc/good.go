package fixture

// hoisted is the pattern the rule's message suggests: allocate once,
// reset per iteration.
func hoisted(c *Comm, rounds int) {
	buf := make([]float64, 128)
	for it := 0; it < rounds; it++ {
		for i := range buf {
			buf[i] = 0
		}
		buf[0] = float64(it)
		Send(c, 1, 7, buf)
	}
}

// lazyInit rebinds at most once under a capacity guard — the amortized
// ensure-capacity idiom is never reported.
func lazyInit(c *Comm, rounds, n int) {
	var buf []float64
	for it := 0; it < rounds; it++ {
		if cap(buf) < n {
			buf = make([]float64, n)
		}
		Send(c, 1, 9, buf)
	}
}

// reuseAppend resets the length and reuses the backing array.
func reuseAppend(c *Comm, xs []float64) {
	var out []float64
	for _, x := range xs {
		out = append(out[:0], x)
		Send(c, 1, 11, out)
	}
}

// buildThenSend allocates per element but communicates once, after the
// loop — nothing allocates on the send path.
func buildThenSend(c *Comm, xs []float64) {
	var parts [][]float64
	for _, x := range xs {
		p := []float64{x}
		parts = append(parts, p)
	}
	Send(c, 1, 13, parts)
}

type result struct{ ID int }

// messages constructs a value-typed message per task: message
// construction is not a hoistable buffer.
func messages(c *Comm, n int) {
	for i := 0; i < n; i++ {
		r := result{ID: i}
		Send(c, 1, 15, r)
	}
}

// allowed documents a justified per-iteration allocation.
func allowed(c *Comm, n int) {
	for i := 1; i < n; i++ {
		b := make([]int, i) //peachyvet:allow hotalloc
		Send(c, 1, 17, b)
	}
}
