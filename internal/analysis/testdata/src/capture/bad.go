package fixture

// Every rank increments the same captured accumulator concurrently: a
// data race, and the classic shared-memory leak in an SPMD body.
func badSharedAccumulator(w *World) {
	total := 0
	w.Run(func(c *Comm) {
		total += c.Rank() // WANT capture
	})
	_ = total
}

// All ranks write the same slice element.
func badFixedSlot(w *World, results []int) {
	w.Run(func(c *Comm) {
		results[0] = c.Rank() // WANT capture
	})
}

// Concurrent map writes fault even on distinct keys.
func badMapWrite(w *World, counts map[string]int) {
	w.Run(func(c *Comm) {
		counts["x"] = 1 // WANT capture
	})
}

// Pool workers race on a captured scalar.
func badPoolWorker(p *Pool) {
	sum := 0
	p.For(10, func(i int) {
		sum += i // WANT capture
	})
	_ = sum
}

// Two par.Do sections write the same captured variable.
func badDoSections() {
	x := 0
	Do(
		func() { x = 1 },
		func() { x = 2 }, // WANT capture
	)
	_ = x
}

// Two par.Do sections both assign a and b: two findings at one position,
// which must come out in the same order on every run.
func badDoSectionsPair() {
	a, b := 0, 0
	Do(
		func() { a, b = 1, 2 },
		func() { a, b = 3, 4 }, // WANT capture
	)
	_, _ = a, b
}

// A raw goroutine mutating captured state is the same hazard.
func badGoCapture() {
	count := 0
	done := make(chan struct{})
	go func() {
		count++ // WANT capture
		close(done)
	}()
	<-done
	_ = count
}

// A package-level variable, declared in another file, is shared by every
// rank.
func badPackageVar(w *World) {
	w.Run(func(c *Comm) {
		hits++ // WANT capture
	})
}

// Two par.Do sections assign the same package-level variable.
func badDoPackageVar() {
	Do(
		func() { hits = 1 },
		func() { hits = 2 }, // WANT capture
	)
}

// A rank body typed through an alias of Comm is still a rank body.
func badAliasedRankBody(w *World) {
	w.Run(func(c *C) {
		hits++ // WANT capture
	})
}
