package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/prng"
)

// net-pingpong: closed-loop round trips between two single-rank worlds in
// this process, joined over a unix socket by the net device. Sizes follow
// a fixed mix — 70 % 8 B, 20 % 1 KiB, 10 % 64 KiB — in a seeded order
// that repeats every sizeCycle ops; batches are whole cycles, so every
// run sends exactly the mix. The median falls inside the 8 B mode
// (per-message codec and allocation cost), the 95th percentile inside the
// 64 KiB mode (per-byte copies).
const (
	sizeCycle = 100
	tagPing   = 1
	tagPong   = 2
)

var sizeMix = []struct {
	bytes int
	share int // ops per cycle
	name  string
}{
	{8, 70, "8B"},
	{1 << 10, 20, "1KiB"},
	{64 << 10, 10, "64KiB"},
}

type netPingPong struct {
	dir    string
	gen    int // mesh generation: fresh socket paths per set-up
	worlds []*cluster.World
	cycle  []int          // index into sizeMix, per op of a cycle
	ping   map[int][]byte // rank 0's seeded payload per size
	pong   map[int][]byte // rank 1's seeded reply per size
}

func openNetPingPong(cfg config) (runner, error) {
	dir, err := os.MkdirTemp(cfg.work, "net-")
	if err != nil {
		return nil, err
	}
	r := prng.New(cfg.seed)
	p := &netPingPong{dir: dir, ping: map[int][]byte{}, pong: map[int][]byte{}}
	pattern := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Uint64())
		}
		return b
	}
	for i, s := range sizeMix {
		p.ping[s.bytes], p.pong[s.bytes] = pattern(s.bytes), pattern(s.bytes)
		for j := 0; j < s.share; j++ {
			p.cycle = append(p.cycle, i)
		}
	}
	prng.Shuffle(r, p.cycle)
	return p, nil
}

// up establishes a fresh two-rank mesh, closing the previous one.
func (p *netPingPong) up() error {
	p.closeWorlds()
	p.gen++
	addrs := []string{
		filepath.Join(p.dir, fmt.Sprintf("%d.0.s", p.gen)),
		filepath.Join(p.dir, fmt.Sprintf("%d.1.s", p.gen)),
	}
	worlds := make([]*cluster.World, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	for r := range worlds {
		//peachyvet:allow rawgo — each goroutine stands in for one rank's process; the mesh needs both ends at once
		go func(r int) {
			defer wg.Done()
			worlds[r], errs[r] = cluster.NewNetWorld(cluster.NetConfig{
				Size: 2, Rank: r, Network: "unix", Addrs: addrs, DialTimeout: 10 * time.Second,
			}, cluster.DefaultOptions())
		}(r)
	}
	wg.Wait()
	p.worlds = worlds
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (p *netPingPong) batch(n int, t *tally) (time.Duration, error) {
	lat := make([]time.Duration, n)
	var bad [2][]bool
	bad[0], bad[1] = make([]bool, n), make([]bool, n)
	traces := make([]*obs.Trace, 2)
	for r, w := range p.worlds {
		if t.traced {
			traces[r] = w.Observe()
		}
		w.ResetStats()
	}
	body := func(c *cluster.Comm) {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				size := sizeMix[p.cycle[i%sizeCycle]].bytes
				start := time.Now()
				cluster.Send(c, 1, tagPing, p.ping[size])
				got := cluster.Recv[[]byte](c, 1, tagPong)
				lat[i] = time.Since(start)
				bad[0][i] = !bytes.Equal(got, p.pong[size])
			}
		}
		if c.Rank() == 1 {
			for i := 0; i < n; i++ {
				size := sizeMix[p.cycle[i%sizeCycle]].bytes
				got := cluster.Recv[[]byte](c, 0, tagPing)
				cluster.Send(c, 0, tagPong, p.pong[size])
				bad[1][i] = !bytes.Equal(got, p.ping[size])
			}
		}
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	start := time.Now()
	for r, w := range p.worlds {
		//peachyvet:allow rawgo — each goroutine stands in for one rank's process, as under peachy launch
		go func(r int, w *cluster.World) {
			defer wg.Done()
			errs[r] = w.Run(body)
		}(r, w)
	}
	wg.Wait()
	wall := time.Since(start)
	if errs[0] != nil || errs[1] != nil {
		fmt.Fprintf(os.Stderr, "bench: net-pingpong: %v; %v\n", errs[0], errs[1])
		t.fail(n)
		return wall, nil
	}
	sim := 0.0
	for i := range lat {
		t.op(lat[i], !bad[0][i] && !bad[1][i])
		t.time(sizeMix[p.cycle[i%sizeCycle]].name, lat[i])
	}
	for _, w := range p.worlds {
		t.add("msgs", float64(w.TotalMessages()))
		t.add("bytes", float64(w.TotalBytes()))
		sim = max(sim, w.SimTime())
	}
	t.addSim(sim, n)
	if t.traced {
		m, err := mergeRanks(traces)
		if err != nil {
			return wall, err
		}
		t.addObs(m, n)
	}
	return wall, nil
}

// mergeRanks folds the per-rank documents of a world whose ranks each
// traced only themselves, as obs-merge does for a launched run.
func mergeRanks(traces []*obs.Trace) (*obs.Metrics, error) {
	docs := make([][]byte, len(traces))
	for r, tr := range traces {
		var err error
		if docs[r], err = json.Marshal(tr.Metrics()); err != nil {
			return nil, err
		}
	}
	return obs.MergeMetrics(docs)
}

func (p *netPingPong) layers(plain, traced *tally) map[string]float64 {
	v := map[string]float64{"net.allocs_per_roundtrip": ratio(float64(plain.mallocs), float64(plain.ops))}
	for _, s := range sizeMix {
		v["net.rtt_p50_us."+s.name] = quietest(plain.timers[s.name], false)
	}
	return v
}

func (p *netPingPong) closeWorlds() {
	for _, w := range p.worlds {
		if w != nil {
			w.Close()
		}
	}
	p.worlds = nil
}

func (p *netPingPong) close() {
	p.closeWorlds()
	os.RemoveAll(p.dir)
}
