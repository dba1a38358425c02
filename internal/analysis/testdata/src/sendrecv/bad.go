package fixture

const tagOrphan = 99

// No Recv anywhere in this package uses tag 99 (or a wildcard), so this
// message can never be received: the sender's payload is lost and any
// rank waiting on a reply hangs.
func sendNeverReceived(c *Comm) {
	Send(c, 1, tagOrphan, 42) // WANT sendrecv
}

// Same defect with an inline literal tag.
func sendLiteralOrphan(c *Comm) {
	Send(c, 0, 123, 7) // WANT sendrecv
}

// Tags from iota and from another constant: tagJob is 10, tagHalt 11 and
// tagAck 21. Only tagJob has a Recv (in good.go), so the other two
// messages can never be received.
const (
	tagJob = iota + 10
	tagHalt
)

const (
	tagBase = 20
	tagAck  = tagBase + 1
)

func dispatch(c *Comm) {
	Send(c, 1, tagJob, 1)
	Send(c, 1, tagHalt, 0) // WANT sendrecv
	Send(c, 1, tagAck, 0)  // WANT sendrecv
}
