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
