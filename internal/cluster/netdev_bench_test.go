// Microbenchmarks for the net device: the same ping-pong and Allreduce
// shapes as bench_test.go, but with every rank on its own World joined
// over unix sockets — real framing, real kernel round-trips.
// scripts/bench.sh records these in BENCH_net.json; diffing against
// BENCH_cluster.json prices the process boundary per message.
package cluster

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// benchNetWorlds brings up a size-rank unix-socket world for a benchmark
// (one goroutine per rank below, exactly as P processes would) and
// returns the per-rank Worlds with the full mesh already established, so
// b.ResetTimer excludes rendezvous.
func benchNetWorlds(b *testing.B, size int) []*World {
	b.Helper()
	dir := b.TempDir()
	addrs := make([]string, size)
	for r := range addrs {
		addrs[r] = filepath.Join(dir, fmt.Sprintf("%d.s", r))
	}
	worlds := make([]*World, size)
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(r int) {
			defer wg.Done()
			w, err := NewNetWorld(NetConfig{
				Size: size, Rank: r, Network: "unix", Addrs: addrs,
				DialTimeout: 10 * time.Second,
			}, DefaultOptions())
			if err != nil {
				b.Errorf("rank %d: %v", r, err)
				return
			}
			worlds[r] = w
		}(r)
	}
	wg.Wait()
	if b.Failed() {
		b.Fatal("net world rendezvous failed")
	}
	b.Cleanup(func() {
		for _, w := range worlds {
			if w != nil {
				w.Close()
			}
		}
	})
	return worlds
}

// runBenchNet executes one SPMD body across the joined worlds, one
// goroutine per rank, and fails the benchmark on any rank error.
func runBenchNet(b *testing.B, worlds []*World, f func(c *Comm)) {
	b.Helper()
	var wg sync.WaitGroup
	wg.Add(len(worlds))
	for _, w := range worlds {
		go func(w *World) {
			defer wg.Done()
			if err := w.Run(f); err != nil {
				b.Errorf("net world rank: %v", err)
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkNetPingPong is BenchmarkPingPong over the wire: round-trip
// time of a message between two single-rank processes-worth of Worlds,
// per payload size. The delta against the in-process number is the cost
// of the frame codec (a []float64 travels as raw elements) plus two
// kernel crossings.
func BenchmarkNetPingPong(b *testing.B) {
	for _, size := range []int{8, 1024, 65536} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			worlds := benchNetWorlds(b, 2)
			payload := make([]float64, size/8)
			b.SetBytes(int64(2 * size))
			b.ResetTimer()
			runBenchNet(b, worlds, func(c *Comm) {
				if c.Rank() == 0 {
					for i := 0; i < b.N; i++ {
						Send(c, 1, 1, payload)
						Recv[[]float64](c, 1, 2)
					}
				} else {
					for i := 0; i < b.N; i++ {
						Recv[[]float64](c, 0, 1)
						Send(c, 0, 2, payload)
					}
				}
			})
		})
	}
}

// BenchmarkNetAllreduce times a 2 KiB Allreduce per world size in a
// long-lived net world (mesh up before the timer), mirroring
// BenchmarkCollectives/Allreduce payload-for-payload.
func BenchmarkNetAllreduce(b *testing.B) {
	for _, p := range []int{2, 4} {
		b.Run(sizeName(p), func(b *testing.B) {
			worlds := benchNetWorlds(b, p)
			b.ResetTimer()
			runBenchNet(b, worlds, func(c *Comm) {
				for i := 0; i < b.N; i++ {
					Allreduce(c, make([]float64, 256), SumFloat64s)
				}
			})
		})
	}
}
