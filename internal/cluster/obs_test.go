// Tests for the observability integration: the Chrome trace exporter must
// be deterministic (the acceptance bar is byte-identical output across
// runs), the recorder's counters must agree exactly with the cost model's
// own accounting, and a detached recorder must cost ~nothing.
package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// tracedScriptBody is a fixed SPMD program exercising point-to-point
// sends, a wildcard-free ring exchange and several collectives — enough
// to populate every event kind the exporter emits. It is shared between
// the in-process golden test and the net-device merge tests: the sim
// timeline must be identical on every device.
func tracedScriptBody(p int) func(c *Comm) {
	return func(c *Comm) {
		buf := make([]float64, 64)
		Bcast(c, 0, buf)
		Allreduce(c, float64(c.Rank()), func(a, b float64) float64 { return a + b })
		next := (c.Rank() + 1) % p
		prev := (c.Rank() + p - 1) % p
		Send(c, next, 7, buf)
		Recv[[]float64](c, prev, 7)
		c.Probe(prev, 7)
		Gather(c, 0, c.Rank())
		c.Barrier()
	}
}

// tracedScript runs tracedScriptBody on the in-process device.
func tracedScript(t *testing.T, p int) *obs.Trace {
	t.Helper()
	w := NewWorld(p)
	trace := w.Observe()
	if err := w.Run(tracedScriptBody(p)); err != nil {
		t.Fatalf("traced script failed: %v", err)
	}
	return trace
}

// TestChromeTraceGolden pins the exporter's exact output: two runs of the
// same program must serialize byte-identically, and the bytes must match
// the checked-in golden file (regenerate with `go test -run Golden -update`).
func TestChromeTraceGolden(t *testing.T) {
	var out [2]bytes.Buffer
	for i := range out {
		if err := tracedScript(t, 4).WriteChrome(&out[i]); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatalf("two runs of the same program produced different traces (%d vs %d bytes)",
			out[0].Len(), out[1].Len())
	}
	golden := filepath.Join("testdata", "chrome_trace_p4.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out[0].Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(out[0].Bytes(), want) {
		t.Errorf("trace differs from %s (%d vs %d bytes); rerun with -update if the change is intended",
			golden, out[0].Len(), len(want))
	}
	if err := obs.LintTrace(out[0].Bytes()); err != nil {
		t.Errorf("golden trace fails its own lint: %v", err)
	}
}

// TestObsCountersMatchCostModel: for every collective, at P in {2,4,8},
// with both the optimized and the baseline algorithms, each rank's traced
// MsgsSent/BytesSent must equal the cost model's own unexported per-comm
// counters — the trace is an alternate accounting of the same traffic, so
// any disagreement means a send path dodged instrumentation.
func TestObsCountersMatchCostModel(t *testing.T) {
	payload := func() []float64 { return make([]float64, 32) }
	ops := []struct {
		name string
		body func(c *Comm, p int)
	}{
		{"Barrier", func(c *Comm, p int) { c.Barrier() }},
		{"Bcast", func(c *Comm, p int) { Bcast(c, 0, payload()) }},
		{"Reduce", func(c *Comm, p int) { Reduce(c, 0, payload(), SumFloat64s) }},
		{"Allreduce", func(c *Comm, p int) { Allreduce(c, payload(), SumFloat64s) }},
		{"Allgather", func(c *Comm, p int) { Allgather(c, c.Rank()) }},
		{"Gather", func(c *Comm, p int) { Gather(c, 0, payload()) }},
		{"Scatter", func(c *Comm, p int) {
			var parts [][]float64
			if c.Rank() == 0 {
				parts = make([][]float64, p)
				for i := range parts {
					parts[i] = payload()
				}
			}
			Scatter(c, 0, parts)
		}},
		{"Alltoall", func(c *Comm, p int) {
			parts := make([][]float64, p)
			for i := range parts {
				parts[i] = payload()
			}
			Alltoall(c, parts)
		}},
		{"Scan", func(c *Comm, p int) {
			Scan(c, float64(c.Rank()), func(a, x float64) float64 { return a + x })
		}},
	}
	for _, op := range ops {
		for _, p := range []int{2, 4, 8} {
			for _, baseline := range []bool{false, true} {
				name := fmt.Sprintf("%s/P%d/baseline=%v", op.name, p, baseline)
				t.Run(name, func(t *testing.T) {
					opts := DefaultOptions()
					opts.BaselineCollectives = baseline
					w := NewWorldOpts(p, opts)
					trace := w.Observe()
					if err := w.Run(func(c *Comm) { op.body(c, p) }); err != nil {
						t.Fatal(err)
					}
					m := trace.Metrics()
					for r, rm := range m.PerRank {
						c := w.comms[r]
						if rm.MsgsSent != c.msgs || rm.BytesSent != c.bytes {
							t.Errorf("rank %d: trace counted %d msgs / %d bytes sent, cost model %d / %d",
								r, rm.MsgsSent, rm.BytesSent, c.msgs, c.bytes)
						}
						if n := opRow(rm, op.name).Count; n != 1 {
							t.Errorf("rank %d: %s count = %d, want 1", r, op.name, n)
						}
					}
					// Received totals must mirror sent totals world-wide:
					// the runtime has no message loss.
					var sentM, sentB, recvM, recvB int64
					for _, rm := range m.PerRank {
						sentM += rm.MsgsSent
						sentB += rm.BytesSent
						recvM += rm.MsgsRecv
						recvB += rm.BytesRecv
					}
					if sentM != recvM || sentB != recvB {
						t.Errorf("world totals: sent %d msgs / %d bytes but received %d / %d",
							sentM, sentB, recvM, recvB)
					}
				})
			}
		}
	}
}

// TestObserveMetricsLint: the metrics document for a traced run passes the
// same lint the check.sh smoke step applies.
func TestObserveMetricsLint(t *testing.T) {
	var buf bytes.Buffer
	if err := tracedScript(t, 4).WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.LintMetrics(buf.Bytes()); err != nil {
		t.Errorf("metrics fail lint: %v", err)
	}
}

// TestServeRunningWorld serves a P=4 world's trace while the ranks run
// the traced script in a loop. Every /metrics document fetched mid-run
// must lint, and once Run returns /metrics must be byte-identical to
// WriteMetrics. Under -race this shows that every cluster hook writes
// the recorders only through their atomics.
func TestServeRunningWorld(t *testing.T) {
	const p = 4
	w := NewWorld(p)
	trace := w.Observe()
	srv, err := obs.Serve("127.0.0.1:0", trace, w.ObsInfo())
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	get := func(path string) ([]byte, error) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return body, err
	}

	// The client lints documents until the ranks finish; the ranks keep
	// looping until it has linted a few, or the client gave up.
	var linted atomic.Int64
	done := make(chan struct{})
	clientErr := make(chan error, 1)
	go func() { //peachyvet:allow rawgo — the HTTP client racing the running ranks
		for {
			body, err := get("/metrics")
			if err == nil {
				err = obs.LintMetrics(body)
			}
			if err == nil {
				_, err = get("/healthz")
			}
			if err != nil {
				linted.Store(-1)
				clientErr <- err
				return
			}
			linted.Add(1)
			select {
			case <-done:
				clientErr <- nil
				return
			default:
			}
		}
	}()
	script := tracedScriptBody(p)
	err = w.Run(func(c *Comm) {
		for stop := false; !stop; {
			script(c)
			n := linted.Load()
			stop = Bcast(c, 0, n < 0 || n >= 3)
		}
	})
	close(done)
	if cerr := <-clientErr; cerr != nil {
		t.Fatalf("mid-run fetch: %v", cerr)
	}
	if err != nil {
		t.Fatal(err)
	}

	got, err := get("/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := trace.WriteMetrics(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("/metrics after Run differs from WriteMetrics\n/metrics:\n%s\nWriteMetrics:\n%s", got, want.Bytes())
	}
}

// BenchmarkObsOverhead measures the transport hot path with observability
// detached (the shipping default: every hook is one nil check), attached,
// and attached with a per-iteration histogram-feeding phase span, so both
// the "~zero disabled overhead" claim and the distribution-recording cost
// have tracked numbers. The nil-recorder mode isolates the disabled
// recording calls themselves, without any transport.
func BenchmarkObsOverhead(b *testing.B) {
	for _, mode := range []string{"detached", "attached", "attached-hist"} {
		b.Run(mode, func(b *testing.B) {
			w := NewWorld(2)
			var trace *obs.Trace
			if mode != "detached" {
				trace = w.Observe()
			}
			payload := make([]float64, 8)
			b.ResetTimer()
			_ = w.Run(func(c *Comm) {
				var rec *obs.Recorder
				if mode == "attached-hist" {
					rec = trace.Rank(c.Rank())
				}
				if c.Rank() == 0 {
					for i := 0; i < b.N; i++ {
						Send(c, 1, 1, payload)
						Recv[[]float64](c, 1, 2)
						rec.PhaseSpan("bench.iter", 0, 1, rec.Now())
					}
				} else {
					for i := 0; i < b.N; i++ {
						Recv[[]float64](c, 0, 1)
						Send(c, 0, 2, payload)
						rec.PhaseSpan("bench.iter", 0, 1, rec.Now())
					}
				}
			})
		})
	}
	// nil-recorder: every recording call on a detached (nil) recorder is
	// one branch; the paired test asserts the path is also allocation-free.
	b.Run("nil-recorder", func(b *testing.B) {
		b.ReportAllocs()
		var rec *obs.Recorder
		for i := 0; i < b.N; i++ {
			rec.Send(1, 1, 64, 0, 1)
			rec.Recv(0, 1, 64, 0, 1, 0)
			rec.PhaseSpan("bench.iter", 0, 1, 0)
			rec.WireSpan("net.tx", 64, 100)
		}
	})
}
