// Command bench is the repository's benchmark harness. Five workloads run
// the cluster runtime, the net device, the exhibits' kernels and the
// analyzer through their public entry points only, and the harness times
// every layer from outside. README.md describes the
// workloads, how to run, trace and compare them, and the baseline.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload coll-p4 --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh [-seed S] [-trace] [-runs N] [-o FILE]
//	bash bench/run.sh -compare A.json B.json
//
// With -workload the workload runs in this process and the last line of
// standard output is its result as one JSON object. Without it every
// workload runs in a fresh child process, so that memory is reported per
// workload, and the reports are collected into a set document that
// -compare reads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload in this process and print its result line (default: every workload, each in a child process)")
	seed := fs.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 25, "measured length of one run")
	trace := fs.Bool("trace", false, "traced run: report the per-layer metrics (also accepts -trace 0|1)")
	runs := fs.Int("runs", 1, "runs of each workload in a full set")
	out := fs.String("o", "", "where a full set writes its set document (default out/bench/set.json, or out/bench/trace.json with -trace)")
	report := fs.String("report", "", "write the full report of a -workload run to this file")
	work := fs.String("work", ".bench_build/work", "scratch directory for sockets")
	compare := fs.Bool("compare", false, "compare two set documents: -compare A.json B.json")
	if err := fs.Parse(bareBool(args, "trace")); err != nil {
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench: run from the repository root:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two set documents")
			return 2
		}
		regressed, err := compareSets(sp, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *seconds < 1 || *runs < 1 {
		fmt.Fprintln(stderr, "bench: -seconds and -runs must be at least 1")
		return 2
	}
	// One P, whatever GOMAXPROCS the environment sets: a world's ranks then
	// need one free CPU, not all of them at once. On a shared host a second
	// P makes every op wait for whichever CPU a neighbour holds, and
	// run-to-run spread grows past any usable bound (README.md, "Bounds").
	// Every report records the value.
	runtime.GOMAXPROCS(1)
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace, work: relPath(*work)}
	if *workload == "" {
		return runSet(sp, cfg, *runs, *out, stdout, stderr)
	}
	w := findWorkload(*workload)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	// An op that hangs inside an in-process world cannot be abandoned;
	// end the process instead of exceeding the run's time limit.
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(stderr, "bench: %s still running after %v; giving up\n", w.name, watchdog)
		os.Exit(3)
	})
	rep, err := measure(w, sp, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printReport(stdout, rep, sp)
	if *report != "" {
		err := writeReport(*report, rep)
		if err == nil && rep.doc != nil {
			// The traced run's last obs metrics document, for peachy obs-lint
			// and for reading the layer numbers back to their source.
			err = writeReport(strings.TrimSuffix(*report, ".json")+".metrics.json", rep.doc)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := resultLine(rep, sp)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// watchdog bounds one -workload run; every workload finishes a default
// run in well under a minute.
const watchdog = 150 * time.Second

// bareBool rewrites "-name 0|1|true|false" as "-name=value", so a boolean
// flag accepts its value as a separate argument as well as bare.
func bareBool(args []string, name string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// relPath shortens a path under the working directory to a relative one:
// unix socket paths live under the scratch directory, and the kernel caps
// a socket path at about a hundred bytes.
func relPath(p string) string {
	wd, err := os.Getwd()
	if err != nil || !filepath.IsAbs(p) {
		return p
	}
	if rel, err := filepath.Rel(wd, p); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return p
}

// printReport writes every metric of a report, one per line, with its
// unit, sample count and within-run spread.
func printReport(w io.Writer, rep *report, sp *spec) {
	mode := "untraced"
	if rep.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s: seed %d, %d s %s, GOMAXPROCS %d, %d ops attempted, %d failed\n",
		rep.Workload, rep.Seed, rep.Seconds, mode, rep.GOMAXPROCS, rep.Attempted, rep.Failed)
	for _, name := range sp.order(rep.Metrics) {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "  %-30s %16.6g %-10s n=%-7d spread %.1f%%\n", name, m.Value, m.Unit, m.N, 100*m.Spread)
	}
}

func writeReport(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runSet runs every workload in its own child process of this binary and
// writes the reports, in workload order, as one set document.
func runSet(sp *spec, cfg config, runs int, out string, stdout, stderr io.Writer) int {
	if out == "" {
		out = filepath.Join("out", "bench", "set.json")
		if cfg.trace {
			out = filepath.Join("out", "bench", "trace.json")
		}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var set []*report
	code := 0
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			path := strings.TrimSuffix(out, ".json") + "." + w.name + ".json"
			rep, err := runChild(exe, w.name, cfg, path, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				rep = failedRun(w.name, cfg)
			}
			if rep.Failed > 0 {
				code = 1
			}
			set = append(set, rep)
		}
	}
	if err := writeReport(out, set); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "bench: wrote %s\n", out)
	return code
}

// failedRun stands for a run whose child process failed — a set-up error,
// a panic, the watchdog's exit on a hang — as one attempted op that
// failed, so the set records it and -compare sees it.
func failedRun(name string, cfg config) *report {
	return &report{
		Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Attempted: 1, Failed: 1,
		Metrics: map[string]metric{"error_rate": {Value: 1, Unit: "ratio", N: 1}},
	}
}

func runChild(exe, name string, cfg config, path string, stdout, stderr io.Writer) (*report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-workload", name,
		"-seed", strconv.FormatUint(cfg.seed, 10), "-seconds", strconv.Itoa(cfg.seconds),
		"-trace="+strconv.FormatBool(cfg.trace), "-work", cfg.work, "-report", path)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Workload != name {
		return nil, errors.New(path + ": report of another workload")
	}
	return &rep, nil
}
