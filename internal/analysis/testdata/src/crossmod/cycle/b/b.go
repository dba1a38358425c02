package b

import (
	"crossmod/cycle/a"
	"example.com/absent" // neither a loaded module nor the standard library
)

type T struct {
	A *a.T
	X absent.X
}
