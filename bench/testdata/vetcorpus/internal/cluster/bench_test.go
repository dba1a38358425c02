// Microbenchmarks for the cluster runtime's transport and collectives.
// scripts/bench.sh runs these and records the results in BENCH_cluster.json;
// treat the recorded numbers as the tracked baseline when touching the
// mailbox or the collective algorithms.
package cluster

import (
	"fmt"
	"testing"
)

func sizeName(p int) string { return fmt.Sprintf("P%d", p) }

// BenchmarkPingPong is the classic MPI microbenchmark: round-trip time of
// a message between two ranks, per payload size.
func BenchmarkPingPong(b *testing.B) {
	for _, size := range []int{8, 1024, 65536} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			payload := make([]float64, size/8)
			w := NewWorld(2)
			b.ResetTimer()
			_ = w.Run(func(c *Comm) {
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
			b.SetBytes(int64(2 * size))
		})
	}
}

// BenchmarkAllreduce measures a whole-world Allreduce per iteration,
// including world spawn — the historical shape of this benchmark, kept so
// recorded baselines stay comparable.
func BenchmarkAllreduce(b *testing.B) {
	for _, p := range []int{2, 4, 8} {
		b.Run(sizeName(p), func(b *testing.B) {
			w := NewWorld(p)
			buf := make([]float64, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = w.Run(func(c *Comm) {
					local := make([]float64, len(buf))
					Allreduce(c, local, SumFloat64s)
				})
			}
		})
	}
}

// BenchmarkMessageRate measures sustained delivery into a single mailbox
// under fan-in contention: every other rank streams messages at rank 0.
// The concrete-source variant drains senders round-robin (the O(1) bucket
// head path); the wildcard variant takes whatever arrived first (the
// cross-bucket seq merge path).
func BenchmarkMessageRate(b *testing.B) {
	const P = 8
	for _, mode := range []string{"concrete", "anysource"} {
		b.Run(mode, func(b *testing.B) {
			w := NewWorld(P)
			payload := make([]float64, 8)
			b.ResetTimer()
			_ = w.Run(func(c *Comm) {
				if c.Rank() != 0 {
					for i := 0; i < b.N; i++ {
						Send(c, 0, 1, payload)
					}
					return
				}
				if mode == "concrete" {
					for i := 0; i < b.N; i++ {
						for src := 1; src < P; src++ {
							Recv[[]float64](c, src, 1)
						}
					}
				} else {
					for i := 0; i < b.N*(P-1); i++ {
						Recv[[]float64](c, AnySource, 1)
					}
				}
			})
			// Metrics are per benchmark iteration: each op delivers P-1
			// messages into rank 0's mailbox. (A previous version reported
			// the total message count, which grew with b.N and made runs
			// incomparable.)
			b.ReportMetric(float64(P-1), "msgs/op")
			b.ReportMetric(float64(w.TotalBytes())/float64(b.N), "bytes/op")
		})
	}
}

// BenchmarkCollectives times each collective in a long-lived world (no
// per-iteration spawn), per world size. These are the per-algorithm
// numbers the O(log P) claims in docs/substrates.md are checked against.
func BenchmarkCollectives(b *testing.B) {
	payload := func() []float64 { return make([]float64, 256) }
	ops := []struct {
		name string
		body func(c *Comm, p int)
	}{
		{"Barrier", func(c *Comm, p int) { c.Barrier() }},
		{"Bcast", func(c *Comm, p int) { Bcast(c, 0, payload()) }},
		{"Reduce", func(c *Comm, p int) { Reduce(c, 0, payload(), SumFloat64s) }},
		{"Allreduce", func(c *Comm, p int) { Allreduce(c, payload(), SumFloat64s) }},
		{"Allgather", func(c *Comm, p int) { Allgather(c, c.Rank()) }},
		{"Gather", func(c *Comm, p int) { Gather(c, 0, payload()) }},
		{"Scatter", func(c *Comm, p int) {
			var parts [][]float64
			if c.Rank() == 0 {
				parts = make([][]float64, p)
				for i := range parts {
					parts[i] = payload()
				}
			}
			Scatter(c, 0, parts)
		}},
		{"Alltoall", func(c *Comm, p int) {
			parts := make([][]float64, p)
			for i := range parts {
				parts[i] = payload()
			}
			Alltoall(c, parts)
		}},
		{"Scan", func(c *Comm, p int) { Scan(c, float64(c.Rank()), func(a, x float64) float64 { return a + x }) }},
	}
	for _, op := range ops {
		for _, p := range []int{2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/%s", op.name, sizeName(p)), func(b *testing.B) {
				w := NewWorld(p)
				b.ResetTimer()
				_ = w.Run(func(c *Comm) {
					for i := 0; i < b.N; i++ {
						op.body(c, p)
					}
				})
			})
		}
	}
}
