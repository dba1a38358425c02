package fixture

const (
	tagNever  = 555
	tagOrphan = 777
)

// doReduce hides a collective behind a helper boundary: no collective is
// syntactically visible in the branch arm below, so the intraprocedural
// collective rule cannot see the mismatch — only call expansion can.
func doReduce(c *Comm) {
	Reduce(c, 0, 1, func(a, b int) int { return a + b })
}

// Rank 0 runs the Reduce inside the helper; every other rank runs no
// collective at all.
func crossMismatch(c *Comm) {
	if c.Rank() == 0 { // WANT protocol
		doReduce(c)
	}
}

// No Send anywhere in this package produces tag 555, so every rank
// reaching this receive blocks forever.
func recvNever(c *Comm) {
	_ = Recv(c, 0, tagNever) // WANT protocol
}

// The tag is a parameter here — the intraprocedural sendrecv rule cannot
// fold it. Binding the call below resolves it to 777, which no Recv in
// the package matches.
func sendVia(c *Comm, tag int) {
	Send(c, 1, tag, 9) // WANT protocol
}

func callSendVia(c *Comm) {
	sendVia(c, tagOrphan)
}

// The loop's trip count is this rank's id: ranks execute different
// numbers of the Bcast, breaking the uniform collective sequence even
// though no single call site is rank-guarded.
func collInRankLoop(c *Comm) {
	for i := 0; i < c.Rank(); i++ {
		Bcast(c, 0, 1) // WANT protocol
	}
}

// tagDone is 801. No Send produces it, so every rank waiting for it
// blocks forever.
const (
	tagStart = iota + 800
	tagDone
)

func waitDone(c *Comm) {
	_ = Recv(c, 0, tagDone) // WANT protocol
}

// Ranks above 0 return before the Barrier inside syncUp (good.go), which
// rank 0 alone then enters. Only call expansion shows the Barrier.
func returnBeforeHelper(c *Comm) {
	if c.Rank() > 0 { // WANT protocol
		return
	}
	syncUp(c)
}

// recvTagged's tag is a parameter, so the sendrecv view cannot match any
// tag in this package. Once askOnce binds it, the Send of tagAsk is left
// without a receive.
const (
	tagAsk   = 910
	tagReply = 911
)

func recvTagged(c *Comm, tag int) int { return Recv(c, 0, tag) }

func askOnce(c *Comm) {
	Send(c, 1, tagAsk, 1) // WANT protocol
	Send(c, 1, tagReply, 2)
	_ = recvTagged(c, tagReply)
}
