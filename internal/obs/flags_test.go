// Tests for the CLI flag plumbing: the .rank<r> artifact suffix under
// peachy launch (rank 0 included — the regression that would shadow an
// in-process run's bare path), strict PEACHY_RANK parsing, and the live
// listen address's rank offset.
package obs

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRankSuffixed(t *testing.T) {
	cases := []struct {
		rank string
		want string
	}{
		{"", "out/trace.json"},        // not launched: bare path
		{"0", "out/trace.json.rank0"}, // rank 0 is suffixed like every rank
		{"7", "out/trace.json.rank7"},
		{"-1", "out/trace.json"}, // malformed ranks must not reach file names
		{"two", "out/trace.json"},
		{"3x", "out/trace.json"},
	}
	for _, c := range cases {
		t.Setenv("PEACHY_RANK", c.rank)
		if got := rankSuffixed("out/trace.json"); got != c.want {
			t.Errorf("PEACHY_RANK=%q: rankSuffixed = %q, want %q", c.rank, got, c.want)
		}
	}
}

// TestEmitRankSuffix: under a launch environment, Emit for rank 0 must
// write trace.json.rank0 and metrics.json.rank0 — never the bare paths,
// which belong to in-process runs.
func TestEmitRankSuffix(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("PEACHY_RANK", "0")
	o := &CLI{
		TracePath:   filepath.Join(dir, "trace.json"),
		MetricsPath: filepath.Join(dir, "metrics.json"),
	}
	if err := o.Emit(inProcessTrace(2)); err != nil {
		t.Fatalf("Emit: %v", err)
	}
	for _, name := range []string{"trace.json.rank0", "metrics.json.rank0"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("expected artifact %s: %v", name, err)
		}
	}
	for _, name := range []string{"trace.json", "metrics.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			t.Errorf("bare %s written under launch — would shadow an in-process artifact", name)
		}
	}
}

func TestEnabledIncludesListen(t *testing.T) {
	if (&CLI{}).Enabled() {
		t.Error("empty CLI should be disabled")
	}
	if !(&CLI{Listen: ":0"}).Enabled() {
		t.Error("-obs-listen alone should enable observability")
	}
}

func TestListenAddrResolution(t *testing.T) {
	// Under peachy launch the flag offsets itself by the launch rank.
	t.Setenv("PEACHY_RANK", "2")
	o := &CLI{Listen: ":9090"}
	if got := o.listenAddr(); got != ":9092" {
		t.Errorf("flag under rank 2: listenAddr = %q, want :9092", got)
	}
	t.Setenv("PEACHY_RANK", "")
	if got := o.listenAddr(); got != ":9090" {
		t.Errorf("flag in-process: listenAddr = %q, want :9090", got)
	}
	if got := (&CLI{}).listenAddr(); got != "" {
		t.Errorf("no flag: listenAddr = %q, want empty", got)
	}
}

// TestCLIServeDisabled: Serve is a typed-nil-free no-op when listening
// is off or there is no trace, so `defer srv.Close()` needs no guard.
func TestCLIServeDisabled(t *testing.T) {
	srv, err := (&CLI{}).Serve(NewTrace(1), ServerInfo{})
	if srv != nil || err != nil {
		t.Errorf("listening off: got (%v, %v), want (nil, nil)", srv, err)
	}
	srv, err = (&CLI{Listen: ":0"}).Serve(nil, ServerInfo{})
	if srv != nil || err != nil {
		t.Errorf("nil trace: got (%v, %v), want (nil, nil)", srv, err)
	}
	srv.Close() // must not panic
}
