// Package fixture holds self-contained peachyvet test inputs for the
// static deadlock rule. The stubs mirror the cluster API shapes: Send is
// non-blocking (eager), Recv blocks, World.Run executes the body once per
// rank concurrently.
package fixture

type Comm struct{}

func (c *Comm) Rank() int { return 0 }
func (c *Comm) Size() int { return 1 }
func (c *Comm) Barrier()  {}

func Send(c *Comm, dst, tag, v int)  {}
func Recv(c *Comm, src, tag int) int { return 0 }

type World struct{}

func (w *World) Run(body func(c *Comm)) error { return nil }
