package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/analysis"
)

// vet-corpus: analysis.Main -json over the four analyzer fixture packages
// of a frozen corpus, whose findings are the golden output. It shares no
// code with the other workloads. The fixtures import nothing, so a pass
// is the analyzer's own work — parsing, types, call graph and all thirteen
// rules — and takes a few milliseconds.
//
// The corpus also holds a snapshot of four of the repository's packages.
// A pass over them takes seconds, most of it type-checking the standard
// library from source, which no op that long can time steadily on a
// shared host; the traced run times one such pass as a layer metric.
//
// The analyzer type-checks imports through go/build, which inside a
// module runs `go list` and type-checks the live package for every
// module-local import. The workload runs with GO111MODULE=off, so those
// imports degrade to empty placeholder packages (typesinfo.go) and later
// changes to the live packages cannot move it; only the analyzer can.
const (
	vetCorpus   = "bench/testdata/vetcorpus"
	vetFixtures = vetCorpus + "/fixtures/..."
	vetSnapshot = vetCorpus + "/..."
	// vetPassRate is the passes per second of budget of a phase. The
	// count is fixed because every pass leaks (README.md, finding a), so
	// peak RSS depends on the number of passes and must not depend on how
	// fast they run.
	vetPassRate = 70
	// vetFamilyPasses is how many passes each rule family's timing takes
	// the quickest of.
	vetFamilyPasses = 20
)

func vetPasses(seconds float64) int { return max(2, int(seconds*vetPassRate)) }

// vetFamilies partitions analysis.AllRules the way docs/analysis.md
// groups them.
var vetFamilies = []struct{ name, rules string }{
	{"spmd", "collective,sendrecv,protocol,deadlock"},
	{"ownership", "useaftersend,recvalias,wiresafe"},
	{"perf", "hotalloc,rolledcoll,nondet"},
	{"local", "capture,lockcopy,rawgo"},
}

type vetRunner struct {
	golden  []byte
	loadMs  []float64 // analysis.Load wall per set-up
	restore func()    // puts GO111MODULE back
}

func openVetCorpus(cfg config) (runner, error) {
	golden, err := os.ReadFile(vetCorpus + ".golden.json")
	if err != nil {
		return nil, err
	}
	v := &vetRunner{golden: golden}
	prev, had := os.LookupEnv("GO111MODULE")
	v.restore = func() {
		if had {
			os.Setenv("GO111MODULE", prev)
		} else {
			os.Unsetenv("GO111MODULE")
		}
	}
	return v, os.Setenv("GO111MODULE", "off")
}

func (v *vetRunner) up() error {
	start := time.Now()
	units, err := analysis.Load([]string{vetFixtures})
	v.loadMs = append(v.loadMs, float64(time.Since(start).Nanoseconds())/1e6)
	if err == nil && len(units) == 0 {
		err = errors.New(vetCorpus + " holds no fixture packages")
	}
	return err
}

func (v *vetRunner) batch(n int, t *tally) (time.Duration, error) {
	var wall time.Duration
	for i := 0; i < n; i++ {
		var out bytes.Buffer
		start := time.Now()
		code := analysis.Main([]string{"-json", vetFixtures}, &out, io.Discard)
		lat := time.Since(start)
		wall += lat
		t.op(lat, code == 1 && bytes.Equal(out.Bytes(), v.golden))
	}
	return wall, nil
}

// liveHeapMB is the heap still reachable after a collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// layers times each rule family over the fixtures, the quickest of
// vetFamilyPasses passes, and one pass over the whole corpus with the
// live heap it leaves behind. A pass that fails to run (exit code 2) gets
// no timing.
func (v *vetRunner) layers(p, tr *tally) map[string]float64 {
	m := map[string]float64{"vet.load_ms": quietest(v.loadMs, false)}
	pass := func(args ...string) (float64, bool) {
		var errOut bytes.Buffer
		start := time.Now()
		if analysis.Main(args, io.Discard, &errOut) == 2 {
			fmt.Fprintf(os.Stderr, "bench: vet-corpus: %v: %s", args, errOut.String())
			return 0, false
		}
		return float64(time.Since(start).Nanoseconds()) / 1e6, true
	}
	for _, f := range vetFamilies {
		best := math.Inf(1)
		for i := 0; i < vetFamilyPasses; i++ {
			if ms, ok := pass("-q", "-rules", f.rules, vetFixtures); ok {
				best = min(best, ms)
			}
		}
		if !math.IsInf(best, 1) {
			m["vet.rules."+f.name+"_ms"] = best
		}
	}
	before := liveHeapMB()
	if ms, ok := pass("-q", vetSnapshot); ok {
		m["vet.snapshot_pass_ms"] = ms
		m["vet.heap_growth_mb_per_pass"] = liveHeapMB() - before
	}
	return m
}

func (v *vetRunner) close() { v.restore() }
