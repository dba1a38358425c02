package fixture

// Rank-indexed slot: each rank writes its own element.
func goodRankSlot(w *World, results []int) {
	w.Run(func(c *Comm) {
		results[c.Rank()] = 1
	})
}

// Rank-guarded single writer: exactly one rank performs the write and
// World.Run's join publishes it.
func goodRankGuard(w *World) {
	total := 0
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			total = 1
		}
	})
	_ = total
}

// Rank-derived index through arithmetic: the taint analysis follows the
// assignment from Rank() into lo.
func goodDerivedIndex(w *World, out []int) {
	w.Run(func(c *Comm) {
		lo := c.Rank() * 2
		out[lo] = 1
	})
}

// Closure-local state is no one else's business.
func goodLocalState(w *World) {
	w.Run(func(c *Comm) {
		sum := 0
		for i := 0; i < 10; i++ {
			sum += i
		}
		_ = sum
	})
}

// Worker parameter partitions the work: out[i] is rank-disjoint.
func goodPoolIndexed(p *Pool, out []int) {
	p.For(len(out), func(i int) {
		out[i] = i * i
	})
}

// par.Do sections writing disjoint fields of one struct do not race.
func goodDoDisjointFields(n *node) {
	Do(
		func() { n.left = 1 },
		func() { n.right = 2 },
	)
}

// The first := declares a local total that shadows the outer one, and the
// mixed := after it redeclares that local: neither writes the captured
// variable.
func goodShadowedLocal(w *World) {
	total := 0
	w.Run(func(c *Comm) {
		total := c.Rank()
		n, total := total+1, total*2
		_, _ = n, total
	})
	_ = total
}

// Each par.Do section declares its own x.
func goodDoLocals() {
	Do(
		func() {
			x := 1
			_ = x
		},
		func() {
			x := 2
			_ = x
		},
	)
}

// A local value named par whose Do runs its sections in turn is not
// par.Do: its sections may share a target.
func goodSequentialDo() {
	par := runner{}
	par.Do(
		func() { hits = 1 },
		func() { hits = 2 },
	)
}
