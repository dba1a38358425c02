// Package wire declares a payload type that a network transport cannot
// encode.
package wire

// Msg carries a channel, which only means something inside one process.
type Msg struct{ Ch chan int }

// Tags of the exchange in crossmod/app.
const (
	TagHello = iota + 1
	TagBye
)
