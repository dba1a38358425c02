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

func jobWorker(c *Comm) {
	_ = Recv(c, 0, tagJob)
}

// No Recv takes tag 17, but the local tagData shadows the constant: the
// Send's tag is 9, which recvData receives.
const tagData = 17

func sendShadowed(c *Comm) {
	tagData := 9
	Send(c, 1, tagData, 1)
}

func recvData(c *Comm) {
	_ = Recv(c, 0, 9)
}

// Receives in a range expression, a switch tag, a type switch and a
// channel send match the Sends in feed like any other Recv.
const (
	tagBatch = 30
	tagCmd   = 31
	tagKind  = 32
	tagFwd   = 33
)

func feed(c *Comm) {
	Send(c, 1, tagBatch, 3)
	Send(c, 1, tagCmd, 0)
	Send(c, 1, tagKind, 1)
	Send(c, 1, tagFwd, 2)
}

func drain(c *Comm, out chan<- int) {
	for i := range Recv(c, 0, tagBatch) {
		_ = i
	}
	switch Recv(c, 0, tagCmd) {
	case 0:
	}
	switch v := any(Recv(c, 0, tagKind)).(type) {
	case int:
		_ = v
	}
	out <- Recv(c, 0, tagFwd)
}
