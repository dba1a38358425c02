package cluster

import (
	"strings"
	"testing"
	"time"
)

// TestVerifyCollectiveMismatch is the acceptance case for the runtime
// verifier: rank 0 calls Barrier while rank 1 calls Allreduce. Without
// Verify this cross-matches tree traffic and hangs or corrupts; with it,
// the world must come down immediately with a diagnostic naming both
// collectives and both ranks.
func TestVerifyCollectiveMismatch(t *testing.T) {
	w := NewWorldOpts(2, VerifyOptions())
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 { //peachyvet:allow collective — the mismatch is the point of this test
			c.Barrier()
		} else {
			Allreduce(c, 1, func(a, b int) int { return a + b })
		}
	})
	if err == nil {
		t.Fatal("mismatched collectives did not fail")
	}
	msg := err.Error()
	for _, want := range []string{"collective mismatch", "Barrier", "Allreduce", "rank 0", "rank 1", "verify_test.go"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, msg)
		}
	}
}

// TestVerifyMismatchNotMaskedByCascade: when a middle rank diverges in a
// larger world, the detecting rank's panic closes the world and bystander
// ranks fail with "world aborted" cascades. Run must still surface the
// root-cause mismatch diagnostic, not whichever cascade happens to sit at
// a lower rank index.
func TestVerifyMismatchNotMaskedByCascade(t *testing.T) {
	w := NewWorldOpts(4, VerifyOptions())
	err := w.Run(func(c *Comm) {
		if c.Rank() == 2 { //peachyvet:allow collective — the mismatch is the point of this test
			Allreduce(c, 1, func(a, b int) int { return a + b })
		} else {
			c.Barrier()
		}
	})
	if err == nil {
		t.Fatal("mismatched collectives did not fail")
	}
	msg := err.Error()
	if !strings.Contains(msg, "collective mismatch") {
		t.Fatalf("root-cause diagnostic masked by a cascade error:\n%s", msg)
	}
	for _, want := range []string{"Allreduce", "Barrier", "rank 2"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, msg)
		}
	}
}

// TestVerifyDeadlockDump: rank 0 receives a message rank 1 never sends.
// The bounded wait must expire and dump every rank's state instead of
// hanging the test binary. (Rank 1 exits cleanly so exactly one rank
// times out, keeping the surfaced error deterministic.)
func TestVerifyDeadlockDump(t *testing.T) {
	opts := VerifyOptions()
	opts.VerifyTimeout = 200 * time.Millisecond
	w := NewWorldOpts(2, opts)
	start := time.Now()
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			Recv[int](c, 1, 5)
		}
	})
	if err == nil {
		t.Fatal("mutual Recv did not fail")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("deadlock detection took %v, expected ~200ms", waited)
	}
	msg := err.Error()
	for _, want := range []string{"suspected deadlock", "rank 0", "rank 1", "blocked on", "tag=5"} {
		if !strings.Contains(msg, want) {
			t.Errorf("dump missing %q:\n%s", want, msg)
		}
	}
}

// TestVerifyCleanRun: a correct program must be unaffected by Verify —
// collectives, point-to-point traffic and Split groups all pass.
func TestVerifyCleanRun(t *testing.T) {
	const P = 4
	w := NewWorldOpts(P, VerifyOptions())
	err := w.Run(func(c *Comm) {
		c.Barrier()
		v := Bcast(c, 0, c.Rank()+100)
		if v != 100 {
			t.Errorf("rank %d: Bcast got %d", c.Rank(), v)
		}
		sum := Allreduce(c, c.Rank(), func(a, b int) int { return a + b })
		if sum != P*(P-1)/2 {
			t.Errorf("rank %d: Allreduce got %d", c.Rank(), sum)
		}
		if c.Rank() == 0 {
			Send(c, 1, 9, "hello")
		} else if c.Rank() == 1 {
			if got := Recv[string](c, 0, 9); got != "hello" {
				t.Errorf("p2p got %q", got)
			}
		}
		sub := c.Split(c.Rank()%2, c.Rank())
		local := Allreduce(sub, 1, func(a, b int) int { return a + b })
		if local != P/2 {
			t.Errorf("rank %d: group Allreduce got %d", c.Rank(), local)
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatalf("clean run failed under Verify: %v", err)
	}
}

// TestAnyTagSkipsCollectiveTraffic guards the wildcard-matching fix: an
// AnyTag receive must only match user messages (tag >= 0), never the
// reserved negative tags collectives ride on — even when collective tree
// traffic is already sitting in the mailbox.
func TestAnyTagSkipsCollectiveTraffic(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			// Root of the broadcast: pushes tree traffic into rank 0's
			// mailbox first, then the p2p payload.
			Bcast(c, 1, 1234)
			Send(c, 0, 7, 42)
		} else {
			// The wildcard receive must skip the waiting Bcast message
			// (same payload type, negative tag) and take the p2p one.
			got := Recv[int](c, 1, AnyTag)
			if got != 42 {
				t.Errorf("AnyTag Recv got %d, want the p2p payload 42", got)
			}
			if v := Bcast(c, 1, 0); v != 1234 {
				t.Errorf("Bcast after wildcard got %d, want 1234", v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVerifyDeadlockDumpMergesBuckets: the dump must render pending
// messages in global arrival order even though the mailbox now shards
// them into per-source buckets — and report the true total across all
// buckets. A token chain orders the sends deterministically: rank 1
// mails two messages, passes the token to rank 2, and so on, while
// rank 0 blocks on a tag nobody sends.
func TestVerifyDeadlockDumpMergesBuckets(t *testing.T) {
	opts := VerifyOptions()
	opts.VerifyTimeout = 200 * time.Millisecond
	w := NewWorldOpts(4, opts)
	err := w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			Recv[int](c, 1, 99)
		case 1:
			Send(c, 0, 11, 0)
			Send(c, 0, 12, 0)
			Send(c, 2, 1, "token")
		case 2:
			Recv[string](c, 1, 1)
			Send(c, 0, 13, 0)
			Send(c, 3, 1, "token")
		case 3:
			Recv[string](c, 2, 1)
			Send(c, 0, 14, 0)
		}
	})
	if err == nil {
		t.Fatal("blocked Recv did not fail under Verify")
	}
	msg := err.Error()
	for _, want := range []string{
		"rank 0: blocked on src=1 tag=99",
		"4 pending message(s)",
		"src=1 tag=11, src=1 tag=12, src=2 tag=13",
		"+1 more",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("dump missing %q:\n%s", want, msg)
		}
	}
}

// TestVerifyMismatchWithPendingTraffic: a collective mismatch must still
// be detected (and the diagnostic must still name both ops) when user
// point-to-point messages from several sources are already parked in the
// diverging rank's indexed mailbox. The collective traffic rides reserved
// negative tags, so the parked user messages must neither satisfy nor
// confuse the mismatched collective's receives.
func TestVerifyMismatchWithPendingTraffic(t *testing.T) {
	w := NewWorldOpts(4, VerifyOptions())
	err := w.Run(func(c *Comm) {
		switch c.Rank() { //peachyvet:allow collective — the mismatch is the point of this test
		case 2:
			Allreduce(c, 1, func(a, b int) int { return a + b })
		case 1:
			Send(c, 2, 21, 0)
			c.Barrier()
		case 3:
			Send(c, 2, 22, 0)
			c.Barrier()
		default:
			c.Barrier()
		}
	})
	if err == nil {
		t.Fatal("mismatched collectives did not fail")
	}
	msg := err.Error()
	for _, want := range []string{"collective mismatch", "Allreduce", "Barrier", "rank 2"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, msg)
		}
	}
}
