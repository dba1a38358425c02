// Package fixture holds self-contained peachyvet test inputs for the
// interprocedural protocol rule. The stubs mirror the cluster API shapes;
// rules match by name and by the Comm receiver or first parameter, so no
// import of the real package is needed.
package fixture

type Comm struct{}

func (c *Comm) Rank() int { return 0 }
func (c *Comm) Size() int { return 1 }
func (c *Comm) Barrier()  {}

func Send(c *Comm, dst, tag, v int)  {}
func Recv(c *Comm, src, tag int) int { return 0 }

func Bcast(c *Comm, root, v int) int                         { return v }
func Reduce(c *Comm, root, v int, op func(a, b int) int) int { return v }
func Allreduce(c *Comm, v int, op func(a, b int) int) int    { return v }
