package cluster

// A Device is the transport a World routes point-to-point messages over.
// Everything above it — collectives, Verify stamps, the obs hooks, the
// simulated α+β·n clocks — is device-independent: a message carries its
// payload, tag, collective stamp and the sender's simulated availability
// time, and the device's only job is to move it into the destination
// rank's mailbox. Two implementations exist:
//
//   - the goroutine device (the default): all ranks share one address
//     space and deliver is a direct mailbox put. Zero-copy, deterministic,
//     and byte-identical to the pre-Device runtime.
//   - the net device (netdev.go): each rank is its own OS process and
//     deliver encodes the message as a length-prefixed binary frame on a
//     per-peer socket. Payloads must be wire-safe (gob-encodable and
//     registered — peachyvet's wiresafe rule is the static gate).
//
// The interface is exported for documentation, but its methods are
// deliberately unexported: devices need access to the unexported message
// representation and mailbox internals, so implementations live in this
// package.
type Device interface {
	// deliver routes msg (already stamped with src/tag/arrive/op/site) to
	// dst's mailbox. Called only from dst's peer ranks' own goroutines.
	deliver(dst int, msg message)
	// peerInfo describes the transport state of a rank whose mailbox this
	// process cannot see (remote ranks on a net device). The goroutine
	// device returns "" for every rank: all state is local.
	peerInfo(rank int) string
	// name identifies the transport for diagnostics and the live /healthz
	// document ("goroutine", "net/unix", "net/tcp").
	name() string
	// close tears the transport down. Safe to call more than once.
	close() error
}

// goroutineDevice is the in-process transport: deliver is a mailbox put.
// It is a struct (not a func value) so the hot send path stays a single
// devirtualizable interface call with no closure allocation.
type goroutineDevice struct{ w *World }

func (d goroutineDevice) deliver(dst int, msg message) { d.w.boxes[dst].put(msg) }

func (d goroutineDevice) peerInfo(rank int) string { return "" }

func (d goroutineDevice) name() string { return "goroutine" }

func (d goroutineDevice) close() error { return nil }
