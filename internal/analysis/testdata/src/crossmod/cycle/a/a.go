// Package a and package b import each other, which go build rejects. The
// analyzer must still load and analyze them, and terminate.
package a

import "crossmod/cycle/b"

type T struct{ B b.T }
