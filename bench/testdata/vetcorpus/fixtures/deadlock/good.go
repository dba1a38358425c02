package fixture

const (
	tagPing2 = 201
	tagPong2 = 202
	tagWork  = 203
	tagRing2 = 204
)

// The classic correct exchange: one side sends before receiving, so the
// in-flight message breaks the wait cycle.
func pingPong(c *Comm) {
	if c.Rank() == 0 {
		Send(c, 1, tagPing2, 1)
		_ = Recv(c, 1, tagPong2)
	} else {
		v := Recv(c, 0, tagPing2)
		Send(c, 0, tagPong2, v)
	}
}

// Only one arm blocks in a Recv; the other arm's Send satisfies it, so
// the simulation completes.
func managerWorker(c *Comm) {
	if c.Rank() == 0 {
		_ = Recv(c, 1, tagWork)
	} else {
		Send(c, 0, tagWork, 5)
	}
}

// Send-before-receive in a uniform rank body: every rank posts its
// message before blocking, so the ring drains.
func ringSendFirst(w *World) {
	_ = w.Run(func(c *Comm) {
		Send(c, 1, tagRing2, 7)
		_ = Recv(c, 0, tagRing2)
	})
}
