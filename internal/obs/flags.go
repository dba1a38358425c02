package obs

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
)

// CLI is the shared -trace/-metrics/-obs-summary/-obs-listen flag set
// every exhibit binary exposes. Bind it before flag.Parse, Serve before
// the workload runs (a no-op unless listening was requested), run the
// workload with a Trace when Enabled(), then Emit the artifacts.
type CLI struct {
	TracePath   string
	MetricsPath string
	Summary     bool
	// Listen is the -obs-listen address for the live HTTP endpoint
	// (/metrics, /healthz, /debug/pprof). In a launched world each rank
	// is its own process: a non-zero port is offset by the rank so the
	// world's endpoints do not collide.
	Listen string
}

// BindCLI registers the observability flags on the default flag set.
func BindCLI() *CLI {
	o := &CLI{}
	flag.StringVar(&o.TracePath, "trace", "", "write a Chrome trace_event JSON timeline to this file (open in chrome://tracing or Perfetto)")
	flag.StringVar(&o.MetricsPath, "metrics", "", "write per-rank counters and the traffic matrix as JSON to this file")
	flag.BoolVar(&o.Summary, "obs-summary", false, "print the per-rank imbalance summary after the run")
	flag.StringVar(&o.Listen, "obs-listen", "", "serve live /metrics, /healthz and /debug/pprof on this address while running (host:port; a non-zero port is offset by the rank under peachy launch)")
	return o
}

// Enabled reports whether any observability output was requested.
func (o *CLI) Enabled() bool {
	return o.TracePath != "" || o.MetricsPath != "" || o.Summary || o.listenAddr() != ""
}

// listenAddr resolves where this process should serve its live endpoint:
// the -obs-listen flag with a non-zero port offset by this process's
// launch rank ("" when listening is off).
func (o *CLI) listenAddr() string {
	if o.Listen == "" {
		return ""
	}
	return OffsetAddr(o.Listen, launchRank())
}

// OffsetAddr shifts a non-zero listen port by rank, so every process of
// a launched world gets its own endpoint from one base address (":9090"
// -> ":9092" on rank 2). Port 0 (ephemeral) and unparsable addresses
// pass through unchanged.
func OffsetAddr(addr string, rank int) string {
	if rank <= 0 {
		return addr
	}
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port == 0 {
		return addr
	}
	return net.JoinHostPort(host, strconv.Itoa(port+rank))
}

// Serve starts the live endpoint for t when -obs-listen requested one.
// Returns nil (no error) when listening is off or there is no trace;
// the returned *Server is nil-safe to Close, so callers simply
// `defer o.Serve(...).Close()`-style without guards. The bound address
// is echoed to stderr — useful with port 0.
func (o *CLI) Serve(t *Trace, info ServerInfo) (*Server, error) {
	addr := o.listenAddr()
	if addr == "" || t == nil {
		return nil, nil
	}
	srv, err := Serve(addr, t, info)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "obs: live endpoint on http://%s (/metrics /healthz /debug/pprof)\n", srv.Addr())
	return srv, nil
}

// Emit writes the requested artifacts from t. A nil trace (the workload
// path that was taken records nothing) is a no-op.
//
// In a multi-process world (`peachy launch`) every rank is its own
// process running the same flags, so each writes its own files: output
// paths get a ".rank<r>" suffix from the PEACHY_RANK environment. The
// per-process trace is also where wall-clock spans become meaningful —
// on the in-process device wall time measures goroutine interleaving,
// while per process it measures the rank's real compute and transport
// waits.
func (o *CLI) Emit(t *Trace) error {
	if t == nil || !o.Enabled() {
		return nil
	}
	if o.TracePath != "" {
		path := rankSuffixed(o.TracePath)
		if err := writeFileWith(path, t.WriteChrome); err != nil {
			return fmt.Errorf("obs: writing trace: %w", err)
		}
		fmt.Printf("obs: trace written to %s\n", path)
	}
	if o.MetricsPath != "" {
		path := rankSuffixed(o.MetricsPath)
		if err := writeFileWith(path, t.WriteMetrics); err != nil {
			return fmt.Errorf("obs: writing metrics: %w", err)
		}
		fmt.Printf("obs: metrics written to %s\n", path)
	}
	if o.Summary {
		t.WriteSummary(os.Stdout)
	}
	return nil
}

// rankSuffixed keeps concurrently-launched ranks from clobbering each
// other's artifacts: path -> path.rank<r> when the process runs under
// `peachy launch`. Every rank gets the suffix — rank 0 included, so
// obs-merge sees a uniform .rank0..rankP-1 input set and an in-process
// run's bare path is never shadowed by a launched rank's file. The rank
// is parsed strictly: a malformed PEACHY_RANK must not smuggle arbitrary
// text into a file name. obs stays dependency-free, so the launch
// contract's rank variable is read directly rather than through the
// cluster package.
func rankSuffixed(path string) string {
	if r := launchRank(); r >= 0 {
		return path + ".rank" + strconv.Itoa(r)
	}
	return path
}

// launchRank parses PEACHY_RANK: the process's rank under `peachy
// launch`, or -1 when not launched (or the variable is malformed).
func launchRank() int {
	s := os.Getenv("PEACHY_RANK")
	if s == "" {
		return -1
	}
	r, err := strconv.Atoi(s)
	if err != nil || r < 0 {
		return -1
	}
	return r
}

func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
