package cluster

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// netAddrs plans one unix socket path per rank inside the test's temp
// dir. Paths are kept short: AF_UNIX caps sun_path at ~104 bytes.
func netAddrs(t *testing.T, size int) []string {
	t.Helper()
	dir := t.TempDir()
	addrs := make([]string, size)
	for r := range addrs {
		addrs[r] = filepath.Join(dir, fmt.Sprintf("%d.s", r))
	}
	return addrs
}

// runNetWorld brings up a size-rank net-device world inside this test
// process (one goroutine per rank, each with its own World, exactly as P
// separate processes would) and runs f per rank. It returns each rank's
// Run error and its World (already closed).
func runNetWorld(t *testing.T, network string, addrs []string, opts Options, f func(c *Comm)) ([]error, []*World) {
	t.Helper()
	size := len(addrs)
	errs := make([]error, size)
	worlds := make([]*World, size)
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(r int) {
			defer wg.Done()
			w, err := NewNetWorld(NetConfig{
				Size: size, Rank: r, Network: network, Addrs: addrs,
				DialTimeout: 10 * time.Second,
			}, opts)
			if err != nil {
				errs[r] = err
				return
			}
			worlds[r] = w
			errs[r] = w.Run(f)
			w.Close()
		}(r)
	}
	wg.Wait()
	return errs, worlds
}

// bringUp runs every rank's NewNetWorld over unix sockets, each on its
// own goroutine started in rank order, and returns once all have
// returned.
func bringUp(addrs []string, dialTimeout time.Duration) ([]*World, []error) {
	size := len(addrs)
	worlds := make([]*World, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(r int) {
			defer wg.Done()
			worlds[r], errs[r] = NewNetWorld(NetConfig{
				Size: size, Rank: r, Network: "unix", Addrs: addrs, DialTimeout: dialTimeout,
			}, DefaultOptions())
		}(r)
	}
	wg.Wait()
	return worlds, errs
}

// TestNetDialerFirstBringUp: a rank that dials before its peer has bound
// its listener connects about as soon as the listener is up. At
// GOMAXPROCS 1 the goroutine started last runs first, so rank 1 dials a
// socket file that does not exist yet, as when one process brings up
// both ranks of a world. The quickest of the bring-ups must take under
// 1 ms; a dialer that retried at a fixed 2 ms would make each one take
// longer than that.
func TestNetDialerFirstBringUp(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows socket set-up past the bound")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dir := t.TempDir()
	const n = 20
	quickest := time.Hour
	for i := 0; i < n; i++ {
		addrs := []string{
			filepath.Join(dir, fmt.Sprintf("%d.0.s", i)),
			filepath.Join(dir, fmt.Sprintf("%d.1.s", i)),
		}
		start := time.Now()
		worlds, errs := bringUp(addrs, 10*time.Second)
		quickest = min(quickest, time.Since(start))
		for r, err := range errs {
			if err != nil {
				t.Fatalf("bring-up %d, rank %d: %v", i, r, err)
			}
			worlds[r].Close()
		}
	}
	if quickest >= time.Millisecond {
		t.Errorf("quickest of %d dialer-first bring-ups took %v, want under 1ms", n, quickest)
	}
}

// TestNetDialDeadline: when a peer never binds its listener, NewNetWorld
// gives up once its DialTimeout has passed, not much later, with an error
// naming the rank it dialed, that rank's address and the refusal every
// dial got, not the timeout of a dial made with no time left.
func TestNetDialDeadline(t *testing.T) {
	// A tcp port bound and released again: nothing listens on it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback tcp: %v", err)
	}
	closedPort := ln.Addr().String()
	ln.Close()
	for _, tc := range []struct {
		network string
		addrs   []string // rank 0 never starts
		refusal string
	}{
		{"unix", netAddrs(t, 2), "no such file or directory"},
		{"tcp", []string{closedPort, "127.0.0.1:0"}, "connection refused"},
	} {
		const timeout = 50 * time.Millisecond
		start := time.Now()
		_, err := NewNetWorld(NetConfig{Size: 2, Rank: 1, Network: tc.network, Addrs: tc.addrs, DialTimeout: timeout}, DefaultOptions())
		took := time.Since(start)
		if err == nil {
			t.Fatalf("%s: NewNetWorld connected to a rank that never bound its listener", tc.network)
		}
		if took < timeout || took > timeout+2*time.Second {
			t.Errorf("%s: gave up after %v, want %v plus a little", tc.network, took, timeout)
		}
		for _, want := range []string{"rank 1 dial rank 0", tc.addrs[0], tc.refusal} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", tc.network, err, want)
			}
		}
		if strings.Contains(err.Error(), "i/o timeout") {
			t.Errorf("%s: error %q reports a timeout, not the refusal", tc.network, err)
		}
	}
}

func TestNetWorldPingPong(t *testing.T) {
	addrs := netAddrs(t, 2)
	got := make([]float64, 2)
	errs, _ := runNetWorld(t, "unix", addrs, DefaultOptions(), func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, 1, 7, []float64{1, 2, 3})
			got[0] = Recv[[]float64](c, 1, 8)[0]
		} else {
			v := Recv[[]float64](c, 0, 7)
			Send(c, 0, 8, []float64{v[0] + v[1] + v[2]})
			got[1] = v[2]
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if got[0] != 6 || got[1] != 3 {
		t.Fatalf("payloads corrupted in transit: got %v", got)
	}
}

func TestNetWorldTCPPingPong(t *testing.T) {
	// The tcp path shares everything but Listen/Dial with unix, so one
	// round trip suffices. Ports are picked by binding :0 in-process.
	addrs := []string{"127.0.0.1:0", ""}
	// Rank 1 dials rank 0 only, so only rank 0 needs a real address; grab
	// a free port by asking the kernel.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback tcp: %v", err)
	}
	addrs[0] = ln.Addr().String()
	addrs[1] = "127.0.0.1:0" // never listened on (rank Size-1 has no listener)
	ln.Close()

	var got int
	errs, _ := runNetWorld(t, "tcp", addrs, DefaultOptions(), func(c *Comm) {
		if c.Rank() == 0 {
			got = Recv[int](c, 1, 1)
		} else {
			Send(c, 0, 1, 41+1)
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if got != 42 {
		t.Fatalf("got %d over tcp, want 42", got)
	}
}

// TestNetWorldMatchesInProcess is the device contract test: the same SPMD
// program, exercising every collective plus point-to-point traffic, must
// produce identical results AND identical simulated clocks on the
// goroutine device and on the net device. The α+β·n cost model travels
// with the frames, so simulation-level experiments cannot tell the
// devices apart.
func TestNetWorldMatchesInProcess(t *testing.T) {
	const P = 4
	program := func(results [][]float64, clocks []float64) func(c *Comm) {
		return func(c *Comm) {
			r := c.Rank()
			c.Barrier()
			v := Bcast(c, 0, []float64{10, 20, 30, 40})
			sum := Allreduce(c, v[r], func(a, b float64) float64 { return a + b })
			all := Allgather(c, sum*float64(r+1))
			part := Scatter(c, 0, []float64{all[0], all[1], all[2], all[3]})
			red := Reduce(c, 0, part, func(a, b float64) float64 { return a + b })
			scan := Scan(c, float64(r+1), func(a, b float64) float64 { return a + b })
			parts := make([]int, c.Size())
			for i := range parts {
				parts[i] = r*10 + i
			}
			back := Alltoall(c, parts)
			ring := 0
			if c.Size() > 1 {
				Send(c, (r+1)%c.Size(), 5, r)
				ring = Recv[int](c, (r-1+c.Size())%c.Size(), 5)
			}
			acc := red + scan + float64(ring)
			for _, b := range back {
				acc += float64(b)
			}
			gathered := Gather(c, 0, acc)
			out := []float64{acc}
			if r == 0 {
				out = append(out, gathered...)
			}
			results[r] = out
			clocks[r] = c.Clock()
		}
	}

	inResults := make([][]float64, P)
	inClocks := make([]float64, P)
	if err := NewWorld(P).Run(program(inResults, inClocks)); err != nil {
		t.Fatalf("in-process run: %v", err)
	}

	netResults := make([][]float64, P)
	netClocks := make([]float64, P)
	errs, _ := runNetWorld(t, "unix", netAddrs(t, P), DefaultOptions(), program(netResults, netClocks))
	for r, err := range errs {
		if err != nil {
			t.Fatalf("net rank %d: %v", r, err)
		}
	}

	for r := 0; r < P; r++ {
		if len(inResults[r]) != len(netResults[r]) {
			t.Fatalf("rank %d: result shape differs: %v vs %v", r, inResults[r], netResults[r])
		}
		for i := range inResults[r] {
			if inResults[r][i] != netResults[r][i] {
				t.Errorf("rank %d result[%d]: in-process %v, net %v", r, i, inResults[r][i], netResults[r][i])
			}
		}
		if inClocks[r] != netClocks[r] {
			t.Errorf("rank %d simulated clock: in-process %v, net %v — cost model must be device-independent",
				r, inClocks[r], netClocks[r])
		}
	}
}

// TestNetWorldSpecialPayloads covers the payload kinds gob cannot encode
// as interface values: struct{}{} (Barrier's token) and typed nil.
func TestNetWorldSpecialPayloads(t *testing.T) {
	errs, _ := runNetWorld(t, "unix", netAddrs(t, 2), DefaultOptions(), func(c *Comm) {
		c.Barrier() // struct{}{} across the wire
		if c.Rank() == 0 {
			Send[[]float64](c, 1, 3, nil) // typed nil flattens to interface nil
		} else {
			if v := Recv[[]float64](c, 0, 3); v != nil {
				panic(fmt.Sprintf("nil payload arrived as %v", v))
			}
		}
		c.Barrier()
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestNetWorldGroups runs the group script (Split groups, a nested
// split and every collective on each) over the wire: results and
// simulated clocks must be bit-identical to the in-process run.
func TestNetWorldGroups(t *testing.T) {
	const P = 8
	inRuns, inClocks := make([][]groupRun, P), make([]float64, P)
	if err := NewWorld(P).Run(groupScriptBody(inRuns, inClocks)); err != nil {
		t.Fatalf("in-process run: %v", err)
	}
	netRuns, netClocks := make([][]groupRun, P), make([]float64, P)
	errs, _ := runNetWorld(t, "unix", netAddrs(t, P), DefaultOptions(), groupScriptBody(netRuns, netClocks))
	for r, err := range errs {
		if err != nil {
			t.Fatalf("net rank %d: %v", r, err)
		}
	}
	for r := 0; r < P; r++ {
		if !reflect.DeepEqual(inRuns[r], netRuns[r]) {
			t.Errorf("rank %d group results differ:\n in-process %+v\n net        %+v", r, inRuns[r], netRuns[r])
		}
		if inClocks[r] != netClocks[r] {
			t.Errorf("rank %d simulated clock: in-process %v, net %v", r, inClocks[r], netClocks[r])
		}
	}
}

// TestNetWorldDeadPeerDiagnosis kills one rank mid-world and requires the
// survivor's blocked receive to fail fast with the dead-peer diagnosis —
// naming the closed connection and the exited process — rather than
// hanging or reporting a suspected deadlock cycle.
func TestNetWorldDeadPeerDiagnosis(t *testing.T) {
	addrs := netAddrs(t, 2)
	var mu sync.Mutex
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	for r := 0; r < 2; r++ {
		go func(r int) {
			defer wg.Done()
			w, err := NewNetWorld(NetConfig{Size: 2, Rank: r, Network: "unix", Addrs: addrs}, DefaultOptions())
			if err != nil {
				mu.Lock()
				errs[r] = err
				mu.Unlock()
				return
			}
			err = w.Run(func(c *Comm) {
				if c.Rank() == 1 {
					return // "crash": exit without sending, tearing down the link
				}
				Recv[int](c, 1, 1) // waits forever unless the dead peer is detected
			})
			w.Close()
			mu.Lock()
			errs[r] = err
			mu.Unlock()
		}(r)
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(30 * time.Second):
		t.Fatal("dead peer not detected: rank 0 still blocked after 30s")
	}
	if errs[1] != nil {
		t.Fatalf("rank 1: %v", errs[1])
	}
	err := errs[0]
	if err == nil {
		t.Fatal("rank 0 received from a dead peer without error")
	}
	for _, want := range []string{"peer unreachable", "dead peer", "exited or crashed"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("dead-peer diagnosis missing %q:\n%s", want, err)
		}
	}
	if strings.Contains(err.Error(), "suspected deadlock") {
		t.Errorf("dead peer misdiagnosed as a deadlock cycle:\n%s", err)
	}
}

// TestNetWorldUnregisteredPayload requires the runtime side of the
// wire-safety contract: sending an unregistered type must fail with an
// error that names the type and points at RegisterWire and the static
// wiresafe check, not with a bare gob stack trace.
func TestNetWorldUnregisteredPayload(t *testing.T) {
	type notRegistered struct{ X int }
	errs, _ := runNetWorld(t, "unix", netAddrs(t, 2), DefaultOptions(), func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, 1, 1, notRegistered{X: 1})
		} else {
			// The sender panics before the frame leaves, so this receive
			// fails via dead-peer detection when rank 0's world closes.
			defer func() { recover() }()
			Recv[notRegistered](c, 0, 1)
		}
	})
	err := errs[0]
	if err == nil {
		t.Fatal("unregistered payload crossed the wire without error")
	}
	for _, want := range []string{"notRegistered", "wire-safe", "RegisterWire"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("wire-safety error missing %q:\n%s", want, err)
		}
	}
}

// resetText is a registered wire payload whose encoder fails with an
// error that mentions a reset.
type resetText struct{ X int }

func (resetText) GobEncode() ([]byte, error) {
	return nil, errors.New("connection reset by validator")
}

func (*resetText) GobDecode([]byte) error { return nil }

// TestNetWorldEncodeErrorIsNotConnError: a send fails as a connection
// error only for the error values a dead connection returns. An encoder
// error whose text mentions a reset is still a wire-safety diagnosis.
func TestNetWorldEncodeErrorIsNotConnError(t *testing.T) {
	RegisterWire(resetText{})
	errs, _ := runNetWorld(t, "unix", netAddrs(t, 2), DefaultOptions(), func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, 1, 1, resetText{X: 1})
		} else {
			// As in TestNetWorldUnregisteredPayload: this receive fails
			// via dead-peer detection once rank 0's world closes.
			defer func() { recover() }()
			Recv[resetText](c, 0, 1)
		}
	})
	err := errs[0]
	if err == nil {
		t.Fatal("a payload that fails to encode crossed the wire without error")
	}
	if !strings.Contains(err.Error(), "not wire-safe") {
		t.Errorf("encode failure misdiagnosed, want \"not wire-safe\":\n%s", err)
	}
}

// TestNetWorldOversizedFrameDiagnosis: a peer whose stream declares a
// frame above maxFrame is marked down with a diagnosis naming the
// declared size and the limit.
func TestNetWorldOversizedFrameDiagnosis(t *testing.T) {
	errs, _ := runNetWorld(t, "unix", netAddrs(t, 2), DefaultOptions(), func(c *Comm) {
		if c.Rank() == 1 {
			conn := c.world.dev.(*netDevice).conns[0]
			if _, err := conn.Write([]byte("\xff\xff\xff\xffgob")); err != nil {
				panic(err)
			}
			return
		}
		Recv[int](c, 1, 1)
	})
	if errs[1] != nil {
		t.Fatalf("rank 1: %v", errs[1])
	}
	err := errs[0]
	if err == nil {
		t.Fatal("rank 0 accepted a frame above maxFrame")
	}
	for _, want := range []string{"frame too large", "4294967295", strconv.Itoa(maxFrame)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("oversized-frame diagnosis missing %q:\n%s", want, err)
		}
	}
	if strings.Contains(err.Error(), "connection reset") {
		t.Errorf("oversized frame diagnosed as a reset:\n%s", err)
	}
}

// writeRaw puts bytes on rank 1's connection to rank 0, bypassing the
// frame encoder.
func writeRaw(c *Comm, b []byte) {
	if _, err := c.world.dev.(*netDevice).conns[0].Write(b); err != nil {
		panic(err)
	}
}

// TestNetWorldUndecodableFrameDiagnosis: a well-formed frame whose body
// does not decode marks the peer down with a decode failure. Neither
// the receive's error nor the peer's link state calls it a connection
// reset or a dead process.
func TestNetWorldUndecodableFrameDiagnosis(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"corrupt gob payload", rawFrame(kindGob, "\x01\x00"), "rank 1: sent a frame that does not decode: gob"},
		{"truncated header", []byte("\x00\x00\x00\x02\x02\x02"), "rank 1: sent a frame that does not decode: header"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errs, worlds := runNetWorld(t, "unix", netAddrs(t, 2), DefaultOptions(), func(c *Comm) {
				if c.Rank() == 1 {
					writeRaw(c, tc.frame)
					return
				}
				Recv[int](c, 1, 1)
			})
			if errs[1] != nil {
				t.Fatalf("rank 1: %v", errs[1])
			}
			err := errs[0]
			if err == nil {
				t.Fatal("rank 0 accepted a frame that does not decode")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("diagnosis does not contain %q:\n%s", tc.want, err)
			}
			for _, wrong := range []string{"connection reset", "exited or crashed"} {
				if strings.Contains(err.Error(), wrong) {
					t.Errorf("undecodable frame diagnosed with %q:\n%s", wrong, err)
				}
			}
			if info := worlds[0].dev.peerInfo(1); strings.Contains(info, "exited or crashed") {
				t.Errorf("peer info calls a peer that sent a bad frame dead: %s", info)
			}
		})
	}
}

// TestNetWorldTruncatedGobPayload: a gob payload cut short inside its
// frame is diagnosed from that frame alone. The peer stays alive and
// sends nothing more, so a reader that went on to the next frame would
// wait until the peer exits and then blame a closed connection.
func TestNetWorldTruncatedGobPayload(t *testing.T) {
	failed := make(chan struct{})
	var elapsed time.Duration
	errs, _ := runNetWorld(t, "unix", netAddrs(t, 2), DefaultOptions(), func(c *Comm) {
		if c.Rank() == 1 {
			writeRaw(c, rawFrame(kindGob, "\x10")) // a 16-byte gob message, none of it sent
			select {
			case <-failed:
			case <-time.After(5 * time.Second):
			}
			return
		}
		start := time.Now()
		defer func() {
			elapsed = time.Since(start)
			close(failed)
		}()
		Recv[int](c, 1, 1)
	})
	if errs[1] != nil {
		t.Fatalf("rank 1: %v", errs[1])
	}
	err := errs[0]
	if err == nil {
		t.Fatal("rank 0 accepted a truncated gob payload")
	}
	if elapsed > time.Second {
		t.Errorf("rank 0 waited %v for a frame it already held", elapsed)
	}
	if !strings.Contains(err.Error(), "rank 1: sent a frame that does not decode") {
		t.Errorf("diagnosis does not name rank 1's undecodable frame:\n%s", err)
	}
	for _, wrong := range []string{"connection closed", "connection reset", "exited or crashed"} {
		if strings.Contains(err.Error(), wrong) {
			t.Errorf("truncated payload diagnosed with %q:\n%s", wrong, err)
		}
	}
}

// TestEnvNetConfig checks the PEACHY_* environment contract parser.
func TestEnvNetConfig(t *testing.T) {
	t.Run("roundtrip", func(t *testing.T) {
		t.Setenv("PEACHY_WORLD", "3")
		t.Setenv("PEACHY_RANK", "2")
		t.Setenv("PEACHY_NET", "tcp")
		t.Setenv("PEACHY_ADDRS", "a:1,b:2,c:3")
		cfg, err := EnvNetConfig()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Size != 3 || cfg.Rank != 2 || cfg.Network != "tcp" || len(cfg.Addrs) != 3 || cfg.Addrs[1] != "b:2" {
			t.Fatalf("bad parse: %+v", cfg)
		}
		if !Launched() {
			t.Fatal("Launched() = false with PEACHY_RANK set")
		}
	})
	t.Run("addr count mismatch", func(t *testing.T) {
		t.Setenv("PEACHY_WORLD", "3")
		t.Setenv("PEACHY_RANK", "0")
		t.Setenv("PEACHY_ADDRS", "a,b")
		if _, err := EnvNetConfig(); err == nil {
			t.Fatal("want error for 2 addrs in a 3-rank world")
		}
	})
	t.Run("rank out of range", func(t *testing.T) {
		t.Setenv("PEACHY_WORLD", "2")
		t.Setenv("PEACHY_RANK", "2")
		t.Setenv("PEACHY_ADDRS", "a,b")
		if _, err := EnvNetConfig(); err == nil {
			t.Fatal("want error for rank 2 of 2")
		}
	})
}
