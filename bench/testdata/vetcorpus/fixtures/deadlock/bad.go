package fixture

const (
	tagPing = 101
	tagPong = 102
	tagRing = 103
)

// Both arms block in a Recv whose matching Send sits after the other
// arm's blocked Recv: rank 0 waits for the pong that rank 1 only sends
// after receiving the ping rank 0 never got to send. No interleaving of
// ranks can finish.
func crossWait(c *Comm) {
	if c.Rank() == 0 { // WANT deadlock
		v := Recv(c, 1, tagPong)
		Send(c, 1, tagPing, v)
	} else {
		v := Recv(c, 0, tagPing)
		Send(c, 0, tagPong, v)
	}
}

// Rank-uniform receive-before-send inside a rank body: every rank blocks
// at the Recv, so no rank ever reaches the Send that would satisfy it.
func ringRecvFirst(w *World) {
	_ = w.Run(func(c *Comm) {
		v := Recv(c, 0, tagRing) // WANT deadlock
		Send(c, 1, tagRing, v)
	})
}
