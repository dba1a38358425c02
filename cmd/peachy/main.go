// Command peachy is the umbrella tool for the Peachy Parallel Assignments
// reproduction. Its main job is regenerating the paper's exhibits:
//
//	peachy list                 # show every exhibit id
//	peachy repro                # regenerate all exhibits into ./out
//	peachy repro -quick         # smaller instances (seconds, not minutes)
//	peachy repro -only fig3     # one exhibit
//	peachy repro -out /tmp/out  # choose the output directory
//	peachy vet ./...            # SPMD correctness analysis (peachyvet)
//
// It is also the multi-process world launcher (the repo's mpirun):
//
//	peachy launch -np 4 ./out/kmeans -distributed ...
//
// spawns 4 copies of the binary, each holding one rank on the net
// device, wired over loopback sockets via the PEACHY_* env contract
// that cluster.OpenWorld reads. Every rank gets the same arguments: the
// program's own -trace, -metrics and -obs-listen flags make per-rank
// files and endpoints. The observability artifacts such a run writes
// per rank are stitched back together with
//
//	peachy obs-merge out/trace.json.rank*
//
// which refuses a set that fails the cross-file checks, and validated
// (per file, plus cross-file conservation for complete rank sets) with
// `peachy obs-lint`.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/cluster/launch"
	"repro/internal/core"
	"repro/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "verify":
		passed, total, lines := core.RunChecks()
		for _, l := range lines {
			fmt.Println(l)
		}
		fmt.Printf("\n%d/%d acceptance checks passed\n", passed, total)
		if passed != total {
			os.Exit(1)
		}
	case "vet":
		os.Exit(analysis.Main(os.Args[2:], os.Stdout, os.Stderr))
	case "launch":
		fs := flag.NewFlagSet("launch", flag.ExitOnError)
		np := fs.Int("np", 4, "number of ranks (one process per rank)")
		netw := fs.String("net", "unix", "transport: unix (socket files) | tcp (loopback ports)")
		raw := fs.Bool("raw-output", false, "do not prefix non-root ranks' output lines with [rank r]")
		_ = fs.Parse(os.Args[2:])
		if fs.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "peachy launch: no program given (usage: peachy launch -np 4 [-net unix|tcp] prog args...)")
			os.Exit(2)
		}
		if err := launch.Run(launch.Config{
			NP: *np, Network: *netw, Argv: fs.Args(), Prefix: !*raw,
		}); err != nil {
			fatal(err)
		}
	case "obs-lint":
		paths, err := expandArtifacts(os.Args[2:])
		if err != nil {
			fatal(fmt.Errorf("obs-lint: %w", err))
		}
		if len(paths) == 0 {
			fmt.Fprintln(os.Stderr, "peachy obs-lint: no files given")
			os.Exit(2)
		}
		bad := 0
		blobs := map[string][]byte{}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err == nil {
				err = obs.LintFile(data)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "peachy obs-lint: %s: %v\n", path, err)
				bad++
				continue
			}
			blobs[path] = data
			fmt.Printf("%s: ok\n", path)
		}
		// Cross-file pass: any complete per-rank set of two ranks or more
		// among the inputs gets the merged-run lint — world-size agreement,
		// rank ownership, and send/recv conservation across the documents.
		bases, groups := rankGroups(paths)
		for _, base := range bases {
			if len(groups[base]) < 2 {
				continue
			}
			docs := make([][]byte, 0, len(groups[base]))
			for _, p := range groups[base] {
				if blobs[p] == nil {
					docs = nil // a member already failed its own lint
					break
				}
				docs = append(docs, blobs[p])
			}
			if docs == nil {
				continue
			}
			if err := obs.LintMerged(docs); err != nil {
				fmt.Fprintf(os.Stderr, "peachy obs-lint: %s.rank*: %v\n", base, err)
				bad++
				continue
			}
			fmt.Printf("%s.rank* (%d ranks): cross-checks ok\n", base, len(docs))
		}
		if bad > 0 {
			os.Exit(1)
		}
	case "obs-merge":
		fs := flag.NewFlagSet("obs-merge", flag.ExitOnError)
		outPath := fs.String("o", "", "output path (default: the input base path, .rank* stripped)")
		_ = fs.Parse(os.Args[2:])
		paths, err := expandArtifacts(fs.Args())
		if err != nil {
			fatal(fmt.Errorf("obs-merge: %w", err))
		}
		if len(paths) == 0 {
			fmt.Fprintln(os.Stderr, "peachy obs-merge: no files given (usage: peachy obs-merge [-o out.json] trace.json.rank*)")
			os.Exit(2)
		}
		base, ordered, err := rankSeries(paths)
		if err != nil {
			fatal(fmt.Errorf("obs-merge: %w", err))
		}
		docs := make([][]byte, len(ordered))
		for r, p := range ordered {
			if docs[r], err = os.ReadFile(p); err != nil {
				fatal(fmt.Errorf("obs-merge: %w", err))
			}
		}
		// Merge into memory first: a set that fails the cross-file checks
		// leaves no output file behind.
		var merged bytes.Buffer
		if err := obs.Merge(&merged, docs); err != nil {
			fatal(fmt.Errorf("obs-merge: %v", err))
		}
		dst := *outPath
		if dst == "" {
			dst = base
		}
		if err := os.WriteFile(dst, merged.Bytes(), 0o644); err != nil {
			fatal(fmt.Errorf("obs-merge: %w", err))
		}
		fmt.Printf("merged %d ranks into %s\n", len(docs), dst)
	case "list":
		for _, e := range core.AllExhibits() {
			fmt.Printf("%-7s %s\n", e.ID, e.Title)
		}
	case "repro":
		fs := flag.NewFlagSet("repro", flag.ExitOnError)
		out := fs.String("out", "out", "output directory for artifacts")
		quick := fs.Bool("quick", false, "shrink instance sizes for a fast pass")
		only := fs.String("only", "", "regenerate a single exhibit id (see `peachy list`)")
		_ = fs.Parse(os.Args[2:])
		if *only != "" {
			e, ok := core.Find(*only)
			if !ok {
				fmt.Fprintf(os.Stderr, "peachy: unknown exhibit %q\n", *only)
				os.Exit(1)
			}
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fatal(err)
			}
			summary, err := e.Run(*out, *quick)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("# %s — %s\n\n%s\n", e.ID, e.Title, summary)
			return
		}
		if err := core.RunAll(*out, *quick); err != nil {
			fatal(err)
		}
		fmt.Printf("all exhibits regenerated into %s (see repro_report.md)\n", *out)
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  peachy list
  peachy repro [-out dir] [-quick] [-only id]
  peachy verify
  peachy vet [-rules r1,r2] [-q] [-json|-sarif] [./... | dir ...]
  peachy obs-lint trace-or-metrics.json ...       (globs ok; complete .rank* sets get cross-file checks)
  peachy obs-merge [-o out.json] trace.json.rank*          (refuses a set obs-lint reports)
  peachy launch -np 4 [-net unix|tcp] [-raw-output] prog args...
                                                  (rank r offsets prog's -obs-listen port by r)`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "peachy:", err)
	os.Exit(1)
}
