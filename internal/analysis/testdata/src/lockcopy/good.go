package fixture

import "sync"

// Pointer receiver and pointer parameters share the one true lock.
func lockByPointer(g *guarded) {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
}

func (g *guarded) bumpPtr() {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
}

// Iterating by index avoids the per-element copy.
func rangeByIndex(gs []guarded) int {
	total := 0
	for i := range gs {
		total += gs[i].n
	}
	return total
}

// Fresh values (composite literals, constructors) are not copies of an
// existing lock.
func freshValue() guarded {
	return guarded{}
}

// A pointer to the WaitGroup can be handed around freely.
func waitGroupPointer() {
	var wg sync.WaitGroup
	p := &wg
	p.Wait()
}

// new takes a type, not a value: each call allocates a fresh lock and
// copies none.
func newLocks() (*sync.Mutex, *sync.WaitGroup, *guarded) {
	m := map[int]*sync.Mutex{}
	m[0] = new(sync.Mutex)
	return new(sync.Mutex), new(sync.WaitGroup), new(guarded)
}
