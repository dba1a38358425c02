package cluster

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// collP4Input is one rank's inputs to a coll-p4-shaped op: the
// collectives of the benchmark's coll-p4 workload, on 2 KiB vectors.
type collP4Input struct {
	bcast  []float64   // the root's Bcast payload (nil off the root)
	red    []float64   // Allreduce contribution
	a2a    [][]float64 // Alltoall parts, one per destination
	gather []float64
	scan   int64
}

const collP4Len = 256 // float64s: 2 KiB

func newCollP4Input(p, rank int) *collP4Input {
	vec := func(salt int) []float64 {
		v := make([]float64, collP4Len)
		for i := range v {
			v[i] = float64((salt*31 + rank*17 + i*7) % 1000)
		}
		return v
	}
	in := &collP4Input{red: vec(1), gather: vec(2), scan: int64(100*rank + 7)}
	if rank == 0 {
		in.bcast = vec(3)
	}
	in.a2a = make([][]float64, p)
	for dst := range in.a2a {
		in.a2a[dst] = vec(4 + dst)
	}
	return in
}

// collP4Op runs one coll-p4 op: its six collectives in the workload's
// order, with the workload's roots and ops.
func collP4Op(c *Comm, in *collP4Input) {
	c.Barrier()
	Bcast(c, 0, in.bcast)
	Allreduce(c, in.red, SumFloat64s)
	Alltoall(c, in.a2a)
	Gather(c, 0, in.gather)
	Scan(c, in.scan, func(a, b int64) int64 { return a + b })
}

// raggedRows is rank's [][]float64 contribution to the ragged case: a
// few rows of differing lengths, some of them empty, so a segment's
// modeled size depends on every element it carries.
func raggedRows(rank int) [][]float64 {
	rows := make([][]float64, rank%3+1)
	for i := range rows {
		rows[i] = make([]float64, (rank+2*i)%5)
		for j := range rows[i] {
			rows[i][j] = float64(rank*100 + i*10 + j)
		}
	}
	return rows
}

// raggedOp gathers, allgathers and scatters [][]float64 elements, whose
// forwarded segment sizes the tree and recursive-doubling paths must
// model element by element.
func raggedOp(c *Comm) {
	p := c.Size()
	Gather(c, p-1, raggedRows(c.Rank()))
	Allgather(c, raggedRows(c.Rank()))
	var parts [][][]float64
	if c.Rank() == p-1 {
		parts = make([][][]float64, p)
		for r := range parts {
			parts[r] = raggedRows(r + 1)
		}
	}
	Scatter(c, p-1, parts)
}

type trafficGolden struct {
	msgs, bytes int64
	clocks      []uint64 // math.Float64bits of every rank's Clock, by rank
}

// TestCollectivesTrafficGolden pins the modeled traffic and simulated
// clocks of the collectives: total messages, total bytes and the exact
// bits of every rank's clock after one coll-p4-shaped op and after the
// ragged [][]float64 case, at power-of-two P and at P=3, which takes the
// fallback paths. The values were recorded before the message path was
// reworked to box each payload once and carry forwarded segment sizes,
// which must change none of them.
func TestCollectivesTrafficGolden(t *testing.T) {
	cases := []struct {
		name string
		p    int
		run  func(c *Comm)
		want trafficGolden
	}{
		{"collp4", 2, nil, trafficGolden{9, 12296, []uint64{0x3edc9aeb534aaac8, 0x3edc9aeb534aaac8}}},
		{"collp4", 3, nil, trafficGolden{22, 28688, []uint64{0x3eea819e6bb485b7, 0x3eec9aeb534aaac8, 0x3eec9aeb534aaac8}}},
		{"collp4", 4, nil, trafficGolden{37, 55320, []uint64{0x3eed76645e9a0157, 0x3eef8fb146302668, 0x3ef0d47f16e325bc, 0x3ef0d47f16e325bc}}},
		{"collp4", 8, nil, trafficGolden{125, 202808, []uint64{
			0x3ef9446f7cacd243, 0x3efa5115f077e4cb, 0x3efb5dbc6442f753, 0x3efc6a62d80e09db,
			0x3efd77094bd91c63, 0x3efe83afbfa42eeb, 0x3eff9056336f4173, 0x3eff9056336f4173,
		}}},
		{"ragged", 2, raggedOp, trafficGolden{4, 112, []uint64{0x3ec940c8e6f1e39e, 0x3ec940c8e6f1e39e}}},
		{"ragged", 3, raggedOp, trafficGolden{8, 440, []uint64{0x3ed51b11a0b3b69d, 0x3ed0e42c4e8d62c6, 0x3ed51b11a0b3b69d}}},
		{"ragged", 4, raggedOp, trafficGolden{14, 912, []uint64{0x3ed9616d30c493cf, 0x3ed95fb562c6f653, 0x3ed95fb562c6f653, 0x3ed9616d30c493cf}}},
		{"ragged", 8, raggedOp, trafficGolden{38, 3800, []uint64{
			0x3ee315867a02249d, 0x3ee314aa930355e0, 0x3ee314aa930355e0, 0x3ee315188682bd3e,
			0x3ee315188682bd3e, 0x3ee314aa930355df, 0x3ee314aa930355df, 0x3ee315867a02249d,
		}}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/P%d", tc.name, tc.p), func(t *testing.T) {
			w := NewWorld(tc.p)
			run := tc.run
			if run == nil {
				ins := make([]*collP4Input, tc.p)
				for r := range ins {
					ins[r] = newCollP4Input(tc.p, r)
				}
				run = func(c *Comm) { collP4Op(c, ins[c.Rank()]) }
			}
			if err := w.Run(run); err != nil {
				t.Fatal(err)
			}
			got := trafficGolden{msgs: w.TotalMessages(), bytes: w.TotalBytes()}
			for _, c := range w.comms {
				got.clocks = append(got.clocks, math.Float64bits(c.Clock()))
			}
			if got.msgs != tc.want.msgs || got.bytes != tc.want.bytes || !slices.Equal(got.clocks, tc.want.clocks) {
				t.Errorf("got  %d msgs, %d B, clocks %#x\nwant %d msgs, %d B, clocks %#x",
					got.msgs, got.bytes, got.clocks, tc.want.msgs, tc.want.bytes, tc.want.clocks)
			}
		})
	}
}
