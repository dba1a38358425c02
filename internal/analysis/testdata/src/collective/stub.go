// Package fixture holds self-contained peachyvet test inputs. The stubs
// mirror the shapes of the cluster API; the rules match by name and by the
// Comm receiver or first parameter, so no import of the real package is
// needed.
package fixture

type Comm struct{}

func (c *Comm) Rank() int                  { return 0 }
func (c *Comm) Size() int                  { return 1 }
func (c *Comm) Barrier()                   {}
func (c *Comm) Split(color, key int) *Comm { return c }

func Allreduce(c *Comm, v int, op func(a, b int) int) int    { return v }
func Bcast(c *Comm, root, v int) int                         { return v }
func Reduce(c *Comm, root, v int, op func(a, b int) int) int { return v }
func Scatter(c *Comm, root int, parts []int) int             { return 0 }
func Alltoall(c *Comm, parts []int) []int                    { return parts }
