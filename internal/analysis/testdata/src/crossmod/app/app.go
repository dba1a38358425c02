// Package app sends a payload whose type is declared in another package
// of the module: wiresafe sees it only if crossmod/wire resolves to the
// package the analyzer loaded.
package app

import (
	"crossmod/cluster"
	"crossmod/wire"
)

func exchange(c *cluster.Comm) {
	if c.Rank() == 0 {
		cluster.Send(c, 1, 0, wire.Msg{}) // WANT wiresafe
		return
	}
	cluster.Recv[wire.Msg](c, 0, 0)
}

// greet's tags are constants of package wire: the first Send pairs with
// the Recv below, and no Recv takes TagBye.
func greet(c *cluster.Comm) {
	if c.Rank() == 0 {
		cluster.Send(c, 1, wire.TagHello, 1)
		cluster.Send(c, 1, wire.TagBye, 2) // WANT sendrecv
		return
	}
	cluster.Recv[int](c, 0, wire.TagHello)
}
