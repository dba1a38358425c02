package knn

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
)

// mrGolden is what one MapReduce run shows outside the job: the world's
// message and byte counts and the exact bits of every rank's clock.
type mrGolden struct {
	msgs, bytes int64
	clocks      []uint64 // math.Float64bits of every rank's Clock, by rank
}

// goldenPreds are the predictions of every run below, which equal
// SequentialHeap's.
var goldenPreds = []int{1, 1, 1, 2, 1, 2, 2, 1, 1, 2, 2, 0, 2, 0, 1, 2, 0, 0, 1, 1}

// TestMapReduceTrafficGolden pins what MapReduce kNN puts on the modeled
// wire and its simulated clocks, at P = 1..5 with the combiner on and off,
// and the Chrome trace of a traced P=4 run of each arm. The values were
// recorded before the shuffle's batches became run-length and the
// per-point arm's values became Candidates, which must change none of
// them.
func TestMapReduceTrafficGolden(t *testing.T) {
	db, queries, _ := testData(21, 300, 20, 4, 3)
	const k = 5
	if want := SequentialHeap(db, queries, k); !slices.Equal(want, goldenPreds) {
		t.Fatalf("SequentialHeap predicts %v, golden %v", want, goldenPreds)
	}
	cases := []struct {
		p        int
		combiner bool
		want     mrGolden
	}{
		{1, false, mrGolden{0, 0, []uint64{0x0}}},
		{1, true, mrGolden{0, 0, []uint64{0x0}}},
		{2, false, mrGolden{3, 48064, []uint64{0x3ed47ebb678cbb97, 0x3ed47ebb678cbb97}}},
		{2, true, mrGolden{3, 1664, []uint64{0x3ec1a2de9f84ab7b, 0x3ec1a2de9f84ab7b}}},
		{3, false, mrGolden{8, 64128, []uint64{0x3ed804acd8a8b299, 0x3ed804acd8a8b299, 0x3ed804acd8a8b299}}},
		{3, true, mrGolden{8, 3328, []uint64{0x3eca5c40ab686472, 0x3eca5c40ab686472, 0x3eca5c40ab686472}}},
		{4, false, mrGolden{15, 72256, []uint64{0x3ede1c9b783345e7, 0x3edaded1d2b32538, 0x3ede1c9b783345e7, 0x3ed9dd1f2018dea5}}},
		{4, true, mrGolden{15, 5056, []uint64{0x3ed5a7f19bf0284a, 0x3ed179a34fbde7de, 0x3ed5a7f19bf0284a, 0x3ed1687543d5c108}}},
		{5, false, mrGolden{24, 77120, []uint64{
			0x3ee0d9dd7a9bb1e0, 0x3edddb52e48de585, 0x3ee0d9dd7a9bb1e0, 0x3edd743e9d1cfc7d, 0x3edddb52e48de585,
		}}},
		{5, true, mrGolden{24, 6720, []uint64{
			0x3ed9f37495f9ddef, 0x3ed5bc8f43d38a18, 0x3ed9f37495f9ddef, 0x3ed5b3f83ddf76ad, 0x3ed5bc8f43d38a18,
		}}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("P%d/combiner=%v", tc.p, tc.combiner), func(t *testing.T) {
			w := cluster.NewWorld(tc.p)
			pred, err := MapReduce(w, db, queries, k, tc.combiner)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(pred, goldenPreds) {
				t.Errorf("predictions %v, want %v", pred, goldenPreds)
			}
			got := mrGolden{msgs: w.TotalMessages(), bytes: w.TotalBytes(), clocks: make([]uint64, tc.p)}
			if err := w.Run(func(c *cluster.Comm) { got.clocks[c.Rank()] = math.Float64bits(c.Clock()) }); err != nil {
				t.Fatal(err)
			}
			if got.msgs != tc.want.msgs || got.bytes != tc.want.bytes || !slices.Equal(got.clocks, tc.want.clocks) {
				t.Errorf("got  %d msgs, %d B, clocks %#x\nwant %d msgs, %d B, clocks %#x",
					got.msgs, got.bytes, got.clocks, tc.want.msgs, tc.want.bytes, tc.want.clocks)
			}
		})
	}
	traces := []struct {
		combiner bool
		sha256   string
	}{
		{false, "30e91a8ee57a0451f30c3c718236d8f3df8b0bbbfc4506f4d761534c4cf75cac"},
		{true, "c4295213d8d77191bcffc8dfa4fca05349741c043d7ee7d2cad4ab3534238f5f"},
	}
	for _, tc := range traces {
		t.Run(fmt.Sprintf("trace/P4/combiner=%v", tc.combiner), func(t *testing.T) {
			w := cluster.NewWorld(4)
			trace := w.Observe()
			if _, err := MapReduce(w, db, queries, k, tc.combiner); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := trace.WriteChrome(&buf); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.sha256 {
				t.Errorf("Chrome trace sha256 %s, want %s", got, tc.sha256)
			}
		})
	}
}
