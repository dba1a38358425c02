// Package launch spawns a multi-process cluster world: P copies of one
// exhibit binary, each holding a single rank on the net device, wired
// together over loopback sockets — the `mpirun` of this repository.
// MatlabMPI's launcher did the same job over a shared filesystem; here
// the rank/address map travels in the PEACHY_* environment contract that
// cluster.OpenWorld reads back. Every rank runs the same arguments, so
// per-rank settings derive from PEACHY_RANK in the program: an exhibit's
// -trace and -metrics files gain a .rank<r> suffix, and its -obs-listen
// port is offset by r.
package launch

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Config describes one launch.
type Config struct {
	// NP is the number of ranks (= processes).
	NP int
	// Network is "unix" (default; socket files in a private temp dir, no
	// port races) or "tcp" (loopback ports, the shape that generalizes to
	// real machines).
	Network string
	// Argv is the program and its arguments, run identically per rank.
	Argv []string
	// Prefix tags every output line with "[rank r] ". Rank 0's lines pass
	// through untagged so an exhibit's result output stays comparable to
	// its in-process run.
	Prefix bool
	// Stdout/Stderr receive the children's (possibly prefixed) output.
	// Defaults: os.Stdout / os.Stderr.
	Stdout, Stderr io.Writer
}

// Run spawns cfg.NP processes and blocks until all exit. It returns an
// error naming the failing ranks if any exit non-zero. When one rank
// fails, its peers see the connection drop and fail fast with the
// runtime's dead-peer diagnosis; any rank still alive well after the
// first failure is killed so a wedged world cannot hang the launcher.
func Run(cfg Config) error {
	if cfg.NP < 1 {
		return fmt.Errorf("launch: need at least 1 rank, got %d", cfg.NP)
	}
	if len(cfg.Argv) == 0 {
		return fmt.Errorf("launch: no program given")
	}
	network := cfg.Network
	if network == "" {
		network = "unix"
	}
	stdout, stderr := cfg.Stdout, cfg.Stderr
	if stdout == nil {
		stdout = os.Stdout
	}
	if stderr == nil {
		stderr = os.Stderr
	}

	addrs, cleanup, err := planAddrs(network, cfg.NP)
	if err != nil {
		return err
	}
	defer cleanup()

	procs := make([]*exec.Cmd, cfg.NP)
	drained := make([]*sync.WaitGroup, cfg.NP)
	var outMu sync.Mutex // one writer at a time keeps lines intact
	for r := 0; r < cfg.NP; r++ {
		cmd := exec.Command(cfg.Argv[0], cfg.Argv[1:]...)
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("PEACHY_WORLD=%d", cfg.NP),
			fmt.Sprintf("PEACHY_RANK=%d", r),
			"PEACHY_NET="+network,
			"PEACHY_ADDRS="+strings.Join(addrs, ","),
		)
		prefix := ""
		if cfg.Prefix && r > 0 {
			prefix = fmt.Sprintf("[rank %d] ", r)
		}
		op, err := cmd.StdoutPipe()
		if err != nil {
			return fmt.Errorf("launch: rank %d stdout: %w", r, err)
		}
		ep, err := cmd.StderrPipe()
		if err != nil {
			return fmt.Errorf("launch: rank %d stderr: %w", r, err)
		}
		if err := cmd.Start(); err != nil {
			for _, p := range procs[:r] {
				p.Process.Kill()
			}
			return fmt.Errorf("launch: starting rank %d: %w", r, err)
		}
		procs[r] = cmd
		wg := &sync.WaitGroup{}
		wg.Add(2)
		go copyLines(wg, &outMu, stdout, op, prefix)
		go copyLines(wg, &outMu, stderr, ep, prefix)
		drained[r] = wg
	}

	// Reap ranks as they exit; once the first failure lands, give the
	// rest a grace period to notice the dead peer, then kill stragglers.
	errs := make([]error, cfg.NP)
	done := make(chan int, cfg.NP)
	for r, cmd := range procs {
		go func(r int, cmd *exec.Cmd) {
			// Wait closes the stdout/stderr pipes, so the line copiers
			// must see EOF first or a rank's tail output is truncated.
			drained[r].Wait()
			errs[r] = cmd.Wait()
			done <- r
		}(r, cmd)
	}
	var failed []int
	var killTimer *time.Timer
	killC := make(chan struct{})
	alive := make([]bool, cfg.NP)
	for i := range alive {
		alive[i] = true
	}
	for exited := 0; exited < cfg.NP; exited++ {
		select {
		case r := <-done:
			alive[r] = false
			if errs[r] != nil {
				failed = append(failed, r)
				if killTimer == nil {
					killTimer = time.AfterFunc(15*time.Second, func() { close(killC) })
				}
			}
		case <-killC:
			for r, cmd := range procs {
				if alive[r] {
					cmd.Process.Kill()
				}
			}
			killC = nil // chan receive on nil blocks: kill only once
			exited--    // this select consumed no exit
		}
	}
	if killTimer != nil {
		killTimer.Stop()
	}
	if len(failed) > 0 {
		parts := make([]string, len(failed))
		for i, r := range failed {
			parts[i] = fmt.Sprintf("rank %d: %v", r, errs[r])
		}
		return fmt.Errorf("launch: %d of %d ranks failed: %s", len(failed), cfg.NP, strings.Join(parts, "; "))
	}
	return nil
}

// planAddrs picks one rendezvous address per rank. Unix sockets get
// fresh paths in a private temp dir — collision- and race-free. TCP gets
// loopback ports discovered by binding ephemeral listeners and closing
// them; the tiny window before the child rebinds is the standard
// launcher compromise and is fine on a loopback smoke, but unix is the
// default for a reason.
func planAddrs(network string, np int) (addrs []string, cleanup func(), err error) {
	cleanup = func() {}
	addrs = make([]string, np)
	switch network {
	case "unix":
		dir, err := os.MkdirTemp("", "peachy-launch-")
		if err != nil {
			return nil, cleanup, fmt.Errorf("launch: temp dir: %w", err)
		}
		for r := range addrs {
			addrs[r] = filepath.Join(dir, fmt.Sprintf("rank%d.sock", r))
		}
		return addrs, func() { os.RemoveAll(dir) }, nil
	case "tcp":
		for r := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, cleanup, fmt.Errorf("launch: probing free port: %w", err)
			}
			addrs[r] = ln.Addr().String()
			ln.Close()
		}
		return addrs, cleanup, nil
	default:
		return nil, cleanup, fmt.Errorf("launch: unsupported network %q (want unix or tcp)", network)
	}
}

// copyLines forwards one child stream line by line, optionally prefixed,
// holding mu per line so concurrent ranks cannot interleave mid-line.
func copyLines(wg *sync.WaitGroup, mu *sync.Mutex, dst io.Writer, src io.Reader, prefix string) {
	defer wg.Done()
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		mu.Lock()
		fmt.Fprintf(dst, "%s%s\n", prefix, sc.Text())
		mu.Unlock()
	}
}
