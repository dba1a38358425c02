// Package cluster stubs the communicator API in a package of its own, so
// that a payload type from a third package of the module reaches a Send
// only through cross-package type information.
package cluster

type Comm struct{}

func (c *Comm) Rank() int { return 0 }
func (c *Comm) Size() int { return 2 }

func Send[T any](c *Comm, dst, tag int, v T) {}

func Recv[T any](c *Comm, src, tag int) T {
	var v T
	return v
}
