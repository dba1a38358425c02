package analysis

import (
	"bytes"
	"go/token"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestLoadReleasesItsFileSet checks that nothing outlives a run: once the
// units of a finished Load are dropped, its FileSet, and with it the
// importer holding the type-checked std packages, can be collected.
func TestLoadReleasesItsFileSet(t *testing.T) {
	freed := make(chan struct{})
	func() {
		units, err := Load([]string{fixtureDir("wiresafe")}) // imports sync
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range units {
			Analyze(u, DefaultConfig())
		}
		runtime.SetFinalizer(units[0].Fset, func(*token.FileSet) { close(freed) })
	}()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-deadline:
			t.Fatal("a finished Load's FileSet is still reachable after its units were dropped")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestConcurrentMain runs two analyses at once; under -race it fails if
// they share unsynchronized state.
func TestConcurrentMain(t *testing.T) {
	const runs = 2
	var wg sync.WaitGroup
	codes := make([]int, runs)
	outs := make([]bytes.Buffer, runs)
	wg.Add(runs)
	for i := 0; i < runs; i++ {
		go func(i int) { //peachyvet:allow rawgo — the test IS two concurrent analyzer runs
			defer wg.Done()
			var errb bytes.Buffer
			codes[i] = Main([]string{"-q", fixtureDir("collective")}, &outs[i], &errb)
		}(i)
	}
	wg.Wait()
	for i := range codes {
		if codes[i] != 1 {
			t.Errorf("run %d: Main = %d, want 1\n%s", i, codes[i], outs[i].String())
		}
	}
	if outs[0].String() != outs[1].String() {
		t.Errorf("concurrent runs disagree:\n%s\nvs\n%s", outs[0].String(), outs[1].String())
	}
}
