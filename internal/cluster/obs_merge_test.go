// Tests for cross-rank artifact merging against the real multi-process
// shape: P net-device worlds (one per rank, exactly as `peachy launch`
// spawns them) each export a per-rank artifact, and merging those must
// reproduce the single-process exporters — byte-for-byte for the Chrome
// trace, exactly up to wall clocks and wire-level ops for metrics.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// tracedNetWorlds runs the script on a P-rank unix-socket net world (one
// goroutine per rank, each with its own World and trace — the launched
// shape) and returns each rank's trace. No rank runs before every rank
// has attached its trace, so every frame is decoded while traced.
func tracedNetWorlds(t *testing.T, p int, body func(c *Comm)) []*obs.Trace {
	t.Helper()
	addrs := netAddrs(t, p)
	traces := make([]*obs.Trace, p)
	errs := make([]error, p)
	var wg, observed sync.WaitGroup
	wg.Add(p)
	observed.Add(p)
	for r := 0; r < p; r++ {
		go func(r int) {
			defer wg.Done()
			w, err := NewNetWorld(NetConfig{
				Size: p, Rank: r, Network: "unix", Addrs: addrs,
				DialTimeout: 10 * time.Second,
			}, DefaultOptions())
			if err != nil {
				errs[r] = err
				observed.Done()
				return
			}
			traces[r] = w.Observe()
			observed.Done()
			observed.Wait()
			errs[r] = w.Run(body)
			w.Close()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return traces
}

func chromeBytes(t *testing.T, tr *obs.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	return buf.Bytes()
}

func metricsBytes(t *testing.T, tr *obs.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	return buf.Bytes()
}

// TestMergedNetTraceMatchesInProcess is the tentpole property: for
// P in {2,4,8}, merging the per-rank Chrome traces of a launched-style
// net-device run reproduces the in-process device's trace byte-for-byte
// (the simulated clocks are device-independent), deterministically
// across merges, and the document set passes the cross-file lint.
func TestMergedNetTraceMatchesInProcess(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		body := tracedScriptBody(p)
		traces := tracedNetWorlds(t, p, body)
		docs := make([][]byte, p)
		for r, tr := range traces {
			docs[r] = chromeBytes(t, tr)
		}
		if err := obs.LintMerged(docs); err != nil {
			t.Errorf("P=%d: LintMerged: %v", p, err)
		}
		want := chromeBytes(t, tracedScript(t, p))
		var got, again bytes.Buffer
		if err := obs.MergeTraces(&got, docs); err != nil {
			t.Fatalf("P=%d: MergeTraces: %v", p, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("P=%d: merged net-device trace differs from the in-process trace (%d vs %d bytes)",
				p, got.Len(), len(want))
		}
		if err := obs.MergeTraces(&again, docs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), again.Bytes()) {
			t.Errorf("P=%d: two merges of the same artifacts differ", p)
		}
	}
}

// TestMergedNetTraceGolden pins the merged output to the same golden file
// the in-process exporter is pinned to: one source of truth for the
// P=4 trace bytes, whichever path produced them.
func TestMergedNetTraceGolden(t *testing.T) {
	traces := tracedNetWorlds(t, 4, tracedScriptBody(4))
	docs := make([][]byte, len(traces))
	for r, tr := range traces {
		docs[r] = chromeBytes(t, tr)
	}
	var merged bytes.Buffer
	if err := obs.MergeTraces(&merged, docs); err != nil {
		t.Fatalf("MergeTraces: %v", err)
	}
	golden := filepath.Join("testdata", "chrome_trace_p4.golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (TestChromeTraceGolden -update creates it): %v", err)
	}
	if !bytes.Equal(merged.Bytes(), want) {
		t.Errorf("merged trace differs from %s (%d vs %d bytes)",
			golden, merged.Len(), len(want))
	}
}

// zeroWallMetrics clears wall-clock fields and drops wire-level op rows
// (net.*): both exist only where real transport ran, so they are exactly
// the fields that legitimately differ between devices.
func zeroWallMetrics(m *obs.Metrics) {
	clean := func(ops []obs.OpMetrics) []obs.OpMetrics {
		out := ops[:0]
		for _, op := range ops {
			if strings.HasPrefix(op.Op, "net.") {
				continue
			}
			op.WallNs = 0
			op.WallP50, op.WallP95, op.WallP99, op.WallMax = 0, 0, 0, 0
			op.WallHist = nil
			out = append(out, op)
		}
		if len(out) == 0 {
			return nil
		}
		return out
	}
	for i := range m.PerRank {
		m.PerRank[i].RecvWaitWallNs = 0
		m.PerRank[i].Ops = clean(m.PerRank[i].Ops)
	}
	m.Ops = clean(m.Ops)
}

func TestMergedNetMetricsMatchesInProcess(t *testing.T) {
	for _, p := range []int{2, 4} {
		traces := tracedNetWorlds(t, p, tracedScriptBody(p))
		docs := make([][]byte, p)
		for r, tr := range traces {
			docs[r] = metricsBytes(t, tr)
		}
		if err := obs.LintMerged(docs); err != nil {
			t.Errorf("P=%d: LintMerged: %v", p, err)
		}
		merged, err := obs.MergeMetrics(docs)
		if err != nil {
			t.Fatalf("P=%d: MergeMetrics: %v", p, err)
		}
		want := tracedScript(t, p).Metrics()
		zeroWallMetrics(merged)
		zeroWallMetrics(want)
		got, _ := json.Marshal(merged)
		exp, _ := json.Marshal(want)
		if !bytes.Equal(got, exp) {
			t.Errorf("P=%d: merged net-device metrics differ from in-process metrics\nmerged: %s\nwant:   %s",
				p, got, exp)
		}
	}
}

// TestNetWireCounters: the wire-level aggregates recorded by the net
// device must conserve — every encoded frame one rank sent was decoded
// by its peer, in both count and bytes — and actually fill the wall
// histograms that the sim-only timeline deliberately excludes.
func TestNetWireCounters(t *testing.T) {
	p := 4
	traces := tracedNetWorlds(t, p, tracedScriptBody(p))
	for r, tr := range traces {
		rm := tr.Metrics().PerRank[r]
		tx, rx := opRow(rm, "net.tx"), opRow(rm, "net.rx")
		if tx.Count == 0 || rx.Count == 0 {
			t.Fatalf("rank %d: no wire ops recorded (tx=%d rx=%d)", r, tx.Count, rx.Count)
		}
		var histN int64
		for _, b := range tx.WallHist {
			histN += b.N
		}
		if histN != tx.Count {
			t.Errorf("rank %d: net.tx histogram count %d != op count %d", r, histN, tx.Count)
		}
		if tx.SimHist != nil {
			t.Errorf("rank %d: wire ops must not fabricate simulated durations", r)
		}
		if rx.WallNs <= 0 {
			t.Errorf("rank %d: net.rx recorded no decode time for %d traced frames", r, rx.Count)
		}
	}
	checkWireConservation(t, traces)
}

// opRow returns rm's row for op, or the zero row when op never ran.
func opRow(rm obs.RankMetrics, op string) obs.OpMetrics {
	for _, om := range rm.Ops {
		if om.Op == op {
			return om
		}
	}
	return obs.OpMetrics{}
}

// checkWireConservation requires every frame the ranks encoded to have
// been decoded by its peer, in both count and bytes.
func checkWireConservation(t *testing.T, traces []*obs.Trace) {
	t.Helper()
	var txN, txB, rxN, rxB int64
	for r, tr := range traces {
		rm := tr.Metrics().PerRank[r]
		tx, rx := opRow(rm, "net.tx"), opRow(rm, "net.rx")
		txN += tx.Count
		txB += tx.Bytes
		rxN += rx.Count
		rxB += rx.Bytes
	}
	if txN != rxN || txB != rxB {
		t.Errorf("wire conservation violated: %d frames / %d bytes encoded but %d / %d decoded",
			txN, txB, rxN, rxB)
	}
}

// TestNetTryRecvWireCounters: a TryRecv hit completes like Recv, so the
// frame it takes is counted as received on the wire. The Barrier orders
// the send ahead of the poll: both ride the same connection, and the
// reader delivers frames in order.
func TestNetTryRecvWireCounters(t *testing.T) {
	traces := tracedNetWorlds(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, 1, 3, []float64{1, 2, 3})
		}
		c.Barrier()
		if c.Rank() == 1 {
			if v, ok := TryRecv[[]float64](c, 0, 3); !ok || len(v) != 3 {
				panic(fmt.Sprintf("TryRecv after Barrier = (%v, %v), want a hit", v, ok))
			}
		}
	})
	rx := opRow(traces[1].Metrics().PerRank[1], "net.rx")
	if rx.Count != 2 {
		t.Errorf("rank 1 decoded %d frames, want 2 (the message and the Barrier token)", rx.Count)
	}
	if rx.WallNs <= 0 {
		t.Error("rank 1's net.rx recorded no decode time for its traced frames")
	}
	checkWireConservation(t, traces)
}

// TestNetDecodeUntimedWithoutTrace: a rank with no trace attached reads
// no clock per frame, so a frame decoded before Observe carries no
// decode time into the trace that later receives it.
func TestNetDecodeUntimedWithoutTrace(t *testing.T) {
	worlds, errs := bringUp(netAddrs(t, 2), 10*time.Second)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		defer worlds[r].Close()
	}
	if err := worlds[0].Run(func(c *Comm) { Send(c, 1, 3, []float64{1, 2, 3}) }); err != nil {
		t.Fatal(err)
	}
	box := worlds[1].boxes[1]
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		box.mu.Lock()
		n := box.nPending
		box.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rank 1 never decoded the frame")
		}
	}
	trace := worlds[1].Observe()
	if err := worlds[1].Run(func(c *Comm) { Recv[[]float64](c, 0, 3) }); err != nil {
		t.Fatal(err)
	}
	rx := opRow(trace.Metrics().PerRank[1], "net.rx")
	if rx.Count != 1 || rx.WallNs != 0 {
		t.Errorf("net.rx = %d frames, %d ns of decode; want 1 frame decoded untraced, 0 ns", rx.Count, rx.WallNs)
	}
}
