// Package fixture holds self-contained peachyvet test inputs for the
// use-after-send ownership rule. The stubs mirror the cluster API
// shapes: the in-process transport hands payloads over by reference, so
// the contract is that a sent buffer is frozen until a sync point.
package fixture

type Comm struct{ clock float64 }

func (c *Comm) Rank() int                  { return 0 }
func (c *Comm) Size() int                  { return 2 }
func (c *Comm) Barrier()                   {}
func (c *Comm) Split(color, key int) *Comm { return &Comm{} }
func (c *Comm) AdvanceClock(s float64)     { c.clock += s }

func Send[T any](c *Comm, dst, tag int, v T) {}

func Recv[T any](c *Comm, src, tag int) T { var zero T; return zero }

func Bcast[T any](c *Comm, root int, v T) T { return v }

func Allreduce[T any](c *Comm, v T, op func(a, b T) T) T { return v }
