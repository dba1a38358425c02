package fixture

const tagWork = 7

// The classic paired exchange: the worker's Recv uses the same constant
// the manager's Send does, even though they sit in different functions.
func managerSide(c *Comm) {
	Send(c, 1, tagWork, 1)
}

func workerSide(c *Comm) {
	_ = Recv(c, 0, tagWork)
}

// A literal pair in one function.
func pingPong(c *Comm) {
	if c.Rank() == 0 {
		Send(c, 1, 8, 1)
	} else {
		_ = Recv(c, 0, 8)
	}
}

// outbox is a local mail queue, not a communicator: its Send takes no
// Comm, so tag 55 needs no matching Recv.
type outbox struct{ queued []string }

func (o *outbox) Send(from, to, tag int, body string) { o.queued = append(o.queued, body) }

func queueGreeting(o *outbox) {
	o.Send(0, 1, 55, "hello")
}
