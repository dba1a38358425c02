// Tests for the fixed-boundary log-bucket histogram: bucket indexing at
// powers of two, quantiles capped at the exact tracked max, and the
// exact-merge property the cross-rank folds depend on.
package obs

import (
	"math"
	"testing"
)

func TestHistIndexBoundaries(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		// Powers of two are boundary-inclusive: 2^k lands in the bucket
		// whose upper bound is 2^k, not the next one up.
		{1, -histMinExp},       // 2^0 -> bound 2^0
		{2, 1 - histMinExp},    // 2^1 -> bound 2^1
		{0.5, -1 - histMinExp}, // 2^-1
		{1.5, 1 - histMinExp},  // (1,2] -> bound 2^1
		{0.75, -histMinExp},    // (0.5,1] -> bound 2^0
		{1e-300, 0},            // underflow clamps to the first bucket
		{1e300, histLen - 1},   // overflow clamps to the last bucket
		{0, 0},                 // non-positive clamps to the first bucket
		{-3, 0},
		{math.Ldexp(1, histMinExp), 0},           // exactly the first bound
		{math.Ldexp(1, histMaxExp), histLen - 1}, // exactly the last bound
	}
	for _, c := range cases {
		if got := histIndex(c.v); got != c.want {
			t.Errorf("histIndex(%g) = %d, want %d", c.v, got, c.want)
		}
		if c.v > 0 && c.v <= math.Ldexp(1, histMaxExp) {
			if b := histBound(histIndex(c.v)); b < c.v {
				t.Errorf("histBound(histIndex(%g)) = %g < value", c.v, b)
			}
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var empty *Hist
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("nil hist Quantile = %g, want 0", got)
	}
	empty = &Hist{}
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty hist Quantile = %g, want 0", got)
	}

	h := &Hist{}
	h.Observe(3.0)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		// With one observation, every quantile is capped at the exact max
		// rather than the (coarser) bucket bound of 4.
		if got := h.Quantile(q); got != 3.0 {
			t.Errorf("single-value Quantile(%g) = %g, want 3", q, got)
		}
	}

	h = &Hist{}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("Quantile(1) = %g, want exact max 100", got)
	}
	p50 := h.Quantile(0.5)
	// The median of 1..100 is 50; a log2 bucket bound overestimates by at
	// most 2x and never underestimates.
	if p50 < 50 || p50 > 100 {
		t.Errorf("Quantile(0.5) = %g, want within [50, 100]", p50)
	}
	if h.Count() != 100 || h.Sum() != 5050 || h.Max() != 100 {
		t.Errorf("count/sum/max = %d/%g/%g, want 100/5050/100",
			h.Count(), h.Sum(), h.Max())
	}
}

// TestHistMergeExact: observing a stream split across two histograms and
// merging must equal observing the whole stream in one histogram — the
// property that makes cross-rank fold order irrelevant for buckets.
func TestHistMergeExact(t *testing.T) {
	vals := []float64{1e-9, 3e-6, 0.25, 0.5, 1, 1.5, 2, 64, 1e12}
	whole, a, b := &Hist{}, &Hist{}, &Hist{}
	for i, v := range vals {
		whole.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	merged := *a
	merged.Merge(b)
	if merged != *whole {
		t.Errorf("merge(split) != whole:\nmerged %+v\nwhole  %+v", merged, whole)
	}
	// Merging from nil is the identity.
	c := *whole
	c.Merge(nil)
	if c != *whole {
		t.Error("Merge(nil) changed the histogram")
	}
}

func TestHistBucketsRoundTrip(t *testing.T) {
	h := &Hist{}
	for _, v := range []float64{0.001, 0.001, 7, 7, 7, 1e6} {
		h.Observe(v)
	}
	bs := h.Buckets()
	back := histFromBuckets(bs, h.Sum(), h.Max())
	if *back != *h {
		t.Errorf("Buckets round trip:\nback %+v\norig %+v", back, h)
	}
	var sparse int64
	for _, b := range bs {
		if b.N == 0 {
			t.Errorf("Buckets() emitted an empty bucket le=%g", b.Le)
		}
		sparse += b.N
	}
	if sparse != h.Count() {
		t.Errorf("sparse buckets total %d, want %d", sparse, h.Count())
	}
	if (&Hist{}).Buckets() != nil {
		t.Error("empty hist Buckets() should be nil")
	}
}
