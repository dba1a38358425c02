package obs

import (
	"math"
	"sync/atomic"
)

// Log-bucketed duration histograms. Every Hist shares one fixed,
// compile-time bucket geometry — power-of-two boundaries spanning
// 2^-50..2^50 — so histograms recorded independently on different ranks
// (or in different processes of a launched world) merge *exactly*:
// bucket counts add, with no re-binning error. That exactness is what
// lets `peachy obs-merge` reproduce the in-process run's quantiles from
// per-rank artifacts, bit for bit.
//
// The same geometry serves both units the recorder cares about:
// simulated seconds (a 1 µs α lands near bucket 2^-20) and wall
// nanoseconds (a 1 ms decode lands near bucket 2^20), with generous
// headroom on both ends.
const (
	histMinExp = -50 // lowest bucket upper bound: 2^-50
	histMaxExp = 50  // highest bucket upper bound: 2^50
	histLen    = histMaxExp - histMinExp + 1
)

// Hist is a log2-bucketed histogram of non-negative values. Bucket i
// counts values v with 2^(histMinExp+i-1) < v <= 2^(histMinExp+i);
// values at or below the bottom boundary clamp into bucket 0, values
// above the top into the last bucket. Alongside the buckets it tracks
// the exact count, sum and max, so p100 is exact and quantile upper
// bounds never overshoot the largest observation.
//
// The zero value is ready to use. A Hist is a plain value: the Recorder
// keeps its histograms in atomicHist and loads them into Hists for
// export, merging and quantiles.
type Hist struct {
	count  int64
	sum    float64
	max    float64
	bucket [histLen]int64
}

// histIndex maps a value to its bucket.
func histIndex(v float64) int {
	if v <= 0 {
		return 0
	}
	// Frexp: v = frac * 2^exp with frac in [0.5, 1), so the inclusive
	// upper bound is 2^exp — except exactly-on-boundary values
	// (frac == 0.5, v == 2^(exp-1)), which belong to the bucket below.
	frac, exp := math.Frexp(v)
	if frac == 0.5 {
		exp--
	}
	idx := exp - histMinExp
	if idx < 0 {
		return 0
	}
	if idx >= histLen {
		return histLen - 1
	}
	return idx
}

// histBound is the inclusive upper bound of bucket i.
func histBound(i int) float64 { return math.Ldexp(1, histMinExp+i) }

// Observe records one value.
func (h *Hist) Observe(v float64) {
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.bucket[histIndex(v)]++
}

// Count returns the number of observations.
func (h *Hist) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observations.
func (h *Hist) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Max returns the largest observation (0 when empty).
func (h *Hist) Max() float64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// inclusive upper boundary of the bucket holding the ceil(q*count)-th
// smallest observation, capped at the exact max. q >= 1 returns the
// exact max; an empty histogram returns 0.
func (h *Hist) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range h.bucket {
		cum += n
		if cum >= rank {
			if b := histBound(i); b < h.max {
				return b
			}
			return h.max
		}
	}
	return h.max
}

// Merge folds o into h. Because every Hist shares the same fixed bucket
// boundaries this is exact: counts add, max takes the larger.
func (h *Hist) Merge(o *Hist) {
	if o == nil {
		return
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
	for i, n := range o.bucket {
		h.bucket[i] += n
	}
}

// HistBucket is one non-empty bucket in the metrics JSON export: N
// observations with previous-bound < v <= Le. Boundaries are exact
// powers of two, so they round-trip through JSON losslessly and a
// parsed histogram merges as exactly as a live one.
type HistBucket struct {
	Le float64 `json:"le"`
	N  int64   `json:"n"`
}

// Buckets returns the sparse exported form (nil when empty).
func (h *Hist) Buckets() []HistBucket {
	if h == nil || h.count == 0 {
		return nil
	}
	var out []HistBucket
	for i, n := range h.bucket {
		if n > 0 {
			out = append(out, HistBucket{Le: histBound(i), N: n})
		}
	}
	return out
}

// histFromBuckets rebuilds a Hist from its exported sparse form plus
// the exact sum and max the surrounding OpMetrics row carries. The
// inverse of Buckets, up to the (irrecoverable) exact positions of
// individual observations.
func histFromBuckets(bs []HistBucket, sum, max float64) *Hist {
	h := &Hist{sum: sum, max: max}
	for _, b := range bs {
		h.bucket[histIndex(b.Le)] += b.N
		h.count += b.N
	}
	return h
}

// atomicHist is the recorder's store behind a Hist: the same bucket
// geometry in atomics with a single writer (the rank goroutine), so
// Trace.Metrics can load it while the rank records. The count is the
// bucket sum, so a loaded Hist is consistent however the load
// interleaves with an observation.
type atomicHist struct {
	max    atomicFloat
	bucket [histLen]atomic.Int64
}

func (a *atomicHist) observe(v float64) {
	a.max.raise(v)
	a.bucket[histIndex(v)].Add(1)
}

// load returns the histogram as a Hist. sum is carried by the owning
// opRecord.
func (a *atomicHist) load(sum float64) *Hist {
	h := &Hist{sum: sum, max: a.max.load()}
	for i := range a.bucket {
		h.bucket[i] = a.bucket[i].Load()
		h.count += h.bucket[i]
	}
	return h
}
