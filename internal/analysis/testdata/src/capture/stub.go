// Package fixture holds self-contained peachyvet test inputs for the
// capture rule: stubs that mirror the World.Run / par.Pool / par.Do
// shapes the rule dispatches on.
package fixture

type Comm struct{}

func (c *Comm) Rank() int { return 0 }
func (c *Comm) Size() int { return 1 }

type World struct{}

func (w *World) Run(body func(c *Comm)) error { return nil }

type Pool struct{}

func (p *Pool) For(n int, body func(i int)) {}

func Do(sections ...func()) {}

// C is an alias of Comm: a literal typed through it is still a rank body.
type C = Comm

// runner runs its functions in turn, so the sections of its Do never
// race.
type runner struct{}

func (runner) Do(fns ...func()) {
	for _, f := range fns {
		f()
	}
}

type node struct {
	left, right int
}

// hits is package-level state every rank and section shares.
var hits int
