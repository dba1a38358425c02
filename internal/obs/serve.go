package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"
)

// The live endpoint: an opt-in HTTP server (-obs-listen) that serves a
// running rank's metrics document at /metrics, a liveness document at
// /healthz, and net/http/pprof — so a long multi-process launch is not
// a black box until it exits.
//
// Concurrency contract: /metrics is Trace.Metrics, the document
// -metrics writes, and /healthz reads the recorders' progress stamps.
// Both read only the recorders' single-writer atomics, never the event
// buffer, so serving is race-free against running ranks without any
// locking. A document fetched mid-run may lag by a few counts; once the
// ranks finish it is byte-identical to WriteMetrics.

// ServerInfo identifies the serving process for /healthz. Rank is the
// process's rank in a launched world, or -1 when every rank is
// in-process (cluster.World.LocalRank's convention).
type ServerInfo struct {
	Rank   int    `json:"rank"`
	World  int    `json:"world"`
	Device string `json:"device"`
}

// Server is a running live endpoint. The zero of usefulness — a nil
// *Server — is safe to Close and Addr, so call sites need no guard when
// serving was not requested.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound listen address ("" on a nil server) — useful
// when serving on port 0.
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the endpoint down. Nil-safe.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}

// Serve serves t over HTTP on addr: GET /metrics returns the metrics
// document (WriteMetrics), GET /healthz the liveness document (rank,
// world, device, last-progress stamp), and /debug/pprof/* the standard
// Go profiles. Close when done. Handlers read only the recorders'
// atomic counters, so serving is race-free against running ranks.
func Serve(addr string, t *Trace, info ServerInfo) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: live endpoint listen %s: %w", addr, err)
	}
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		t.WriteMetrics(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		var lastNs int64
		for _, rec := range t.recs {
			if v := rec.lastProgress.Load(); v > lastNs {
				lastNs = v
			}
		}
		h := struct {
			Status           string  `json:"status"`
			Rank             int     `json:"rank"`
			World            int     `json:"world"`
			Device           string  `json:"device"`
			Pid              int     `json:"pid"`
			UptimeS          float64 `json:"uptime_s"`
			LastProgressNs   int64   `json:"last_progress_ns"`
			LastProgressAgoS float64 `json:"last_progress_ago_s"`
		}{
			Status: "ok", Rank: info.Rank, World: info.World, Device: info.Device,
			Pid: os.Getpid(), UptimeS: time.Since(start).Seconds(),
			LastProgressNs:   lastNs,
			LastProgressAgoS: -1,
		}
		if lastNs > 0 {
			h.LastProgressAgoS = (time.Since(t.epoch) - time.Duration(lastNs)).Seconds()
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, h)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	// The endpoint outlives this call by design: it serves until Close
	// tears it down, alongside (not inside) the traced world's ranks.
	go srv.Serve(ln) //peachyvet:allow rawgo — server-lifetime goroutine, reaped by Server.Close
	return &Server{ln: ln, srv: srv}, nil
}
