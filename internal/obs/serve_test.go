// Tests for the live endpoint: once recording stops, /metrics must be
// byte-identical to WriteMetrics; while a writer is still recording,
// every /metrics document must lint (the race detector is the other
// assertion there); and the nil/disabled paths must be safe.
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
)

// httpGet fetches path from the endpoint and returns the body of a 200
// response.
func httpGet(t *testing.T, srv *Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return body
}

func TestServeMetricsAfterRun(t *testing.T) {
	tr := NewTrace(2)
	srv, err := Serve("127.0.0.1:0", tr, ServerInfo{Rank: -1, World: 2, Device: "inproc"})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	for r := 0; r < 2; r++ {
		mergeScript(tr.Rank(r), r, 2)
	}

	got := httpGet(t, srv, "/metrics")
	var want bytes.Buffer
	if err := tr.WriteMetrics(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("/metrics differs from WriteMetrics\n/metrics:\n%s\nWriteMetrics:\n%s", got, want.Bytes())
	}
	if err := LintMetrics(got); err != nil {
		t.Errorf("/metrics fails lint: %v", err)
	}
	var m Metrics
	if err := json.Unmarshal(got, &m); err != nil {
		t.Fatal(err)
	}
	if m.TotalMsgs != 2 || m.TotalBytes != 128 {
		t.Errorf("totals = %d msgs / %d bytes, want 2 / 128", m.TotalMsgs, m.TotalBytes)
	}
	if got := m.PerRank[1].SimTotal; got != 2 {
		t.Errorf("rank 1 sim_total_s = %g, want 2 (last recorded sim end)", got)
	}

	var h struct {
		LastProgressNs int64 `json:"last_progress_ns"`
	}
	if err := json.Unmarshal(httpGet(t, srv, "/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	if h.LastProgressNs == 0 {
		t.Error("/healthz: no progress stamp after recording")
	}
}

// TestServeLiveEndpoints hits /metrics and /healthz over real HTTP while
// a writer goroutine is still recording: under -race this proves the
// recorder's single-writer atomics are all the handlers read, and every
// mid-run /metrics document must still pass LintMetrics.
func TestServeLiveEndpoints(t *testing.T) {
	tr := NewTrace(1)
	srv, err := Serve("127.0.0.1:0", tr, ServerInfo{Rank: 0, World: 4, Device: "net/unix"})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { //peachyvet:allow rawgo — the test IS the concurrent writer racing the HTTP reader
		defer wg.Done()
		rec := tr.Rank(0)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sim := float64(i)
			rec.Send(0, 1, 8, sim, sim+0.1)
			rec.Recv(0, 1, 8, sim+0.1, sim+0.2, rec.Now())
			rec.Collective("Allreduce", -1, sim+0.2, sim+0.3, rec.Now())
			rec.WireSpan("net.tx", 64, 1000)
		}
	}()

	decode := func(path string, body []byte) map[string]any {
		t.Helper()
		var doc map[string]any
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("GET %s: invalid JSON: %v\n%s", path, err, body)
		}
		return doc
	}

	for i := 0; i < 10; i++ {
		body := httpGet(t, srv, "/metrics")
		if err := LintMetrics(body); err != nil {
			t.Fatalf("mid-run /metrics fails lint: %v\n%s", err, body)
		}
		m := decode("/metrics", body)
		if m["ranks"].(float64) != 1 {
			t.Fatalf("/metrics ranks = %v, want 1", m["ranks"])
		}
		h := decode("/healthz", httpGet(t, srv, "/healthz"))
		if h["status"] != "ok" || h["rank"].(float64) != 0 || h["world"].(float64) != 4 {
			t.Fatalf("/healthz = %v", h)
		}
		if h["device"] != "net/unix" {
			t.Fatalf("/healthz device = %v", h["device"])
		}
	}

	close(stop)
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestServerNilSafe(t *testing.T) {
	var s *Server
	if s.Addr() != "" {
		t.Error("nil Server Addr should be empty")
	}
	if err := s.Close(); err != nil {
		t.Errorf("nil Server Close: %v", err)
	}
}

func TestOffsetAddr(t *testing.T) {
	cases := []struct {
		addr string
		rank int
		want string
	}{
		{":9090", 2, ":9092"},
		{"127.0.0.1:9090", 1, "127.0.0.1:9091"},
		{"127.0.0.1:9090", 0, "127.0.0.1:9090"},
		{"127.0.0.1:9090", -1, "127.0.0.1:9090"},
		{":0", 3, ":0"},           // ephemeral: every rank asks the kernel
		{"garbage", 1, "garbage"}, // unparsable passes through untouched
		{"", 1, ""},
	}
	for _, c := range cases {
		if got := OffsetAddr(c.addr, c.rank); got != c.want {
			t.Errorf("OffsetAddr(%q, %d) = %q, want %q", c.addr, c.rank, got, c.want)
		}
	}
}
