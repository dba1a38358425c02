package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync/atomic"
)

// OpMetrics aggregates one operation name on one rank (or, in the
// document-level Ops list, across all ranks). Beyond the flat totals it
// carries the latency distribution: p50/p95/p99/max quantiles for the
// simulated and wall durations, plus the sparse log-bucket histograms
// they were computed from — fixed boundaries, so per-rank rows merge
// exactly into the run-level row. Sim fields are absent for wire-level
// ops (net.tx/net.rx have no simulated duration; Bytes carries their
// frame bytes instead), wall quantiles are absent when nothing was
// observed.
type OpMetrics struct {
	Op     string  `json:"op"`
	Count  int64   `json:"count"`
	SimS   float64 `json:"sim_s"`
	WallNs int64   `json:"wall_ns"`
	Bytes  int64   `json:"bytes,omitempty"`

	SimP50 float64 `json:"sim_p50_s,omitempty"`
	SimP95 float64 `json:"sim_p95_s,omitempty"`
	SimP99 float64 `json:"sim_p99_s,omitempty"`
	SimMax float64 `json:"sim_max_s,omitempty"`

	WallP50 int64 `json:"wall_p50_ns,omitempty"`
	WallP95 int64 `json:"wall_p95_ns,omitempty"`
	WallP99 int64 `json:"wall_p99_ns,omitempty"`
	WallMax int64 `json:"wall_max_ns,omitempty"`

	SimHist  []HistBucket `json:"sim_hist,omitempty"`
	WallHist []HistBucket `json:"wall_hist,omitempty"`
}

// newOpMetrics assembles one OpMetrics row from totals plus the two
// duration histograms (either may be nil/empty).
func newOpMetrics(op string, count int64, simS float64, wallNs, bytes int64, simH, wallH *Hist) OpMetrics {
	om := OpMetrics{Op: op, Count: count, SimS: simS, WallNs: wallNs, Bytes: bytes}
	if simH.Count() > 0 {
		om.SimP50 = simH.Quantile(0.50)
		om.SimP95 = simH.Quantile(0.95)
		om.SimP99 = simH.Quantile(0.99)
		om.SimMax = simH.Max()
		om.SimHist = simH.Buckets()
	}
	if wallH.Count() > 0 {
		om.WallP50 = int64(wallH.Quantile(0.50))
		om.WallP95 = int64(wallH.Quantile(0.95))
		om.WallP99 = int64(wallH.Quantile(0.99))
		om.WallMax = int64(wallH.Max())
		om.WallHist = wallH.Buckets()
	}
	return om
}

// RankMetrics is one rank's flat counter view.
type RankMetrics struct {
	Rank      int   `json:"rank"`
	MsgsSent  int64 `json:"msgs_sent"`
	BytesSent int64 `json:"bytes_sent"`
	MsgsRecv  int64 `json:"msgs_recv"`
	BytesRecv int64 `json:"bytes_recv"`
	// Collectives totals the collective invocations (Barrier..Scan).
	Collectives int64 `json:"collectives"`
	// SimTotal is the rank's simulated finish time (max span end);
	// SimBusy subtracts the time the rank spent blocked in receives.
	SimTotal       float64     `json:"sim_total_s"`
	SimBusy        float64     `json:"sim_busy_s"`
	RecvWaitSim    float64     `json:"recv_wait_sim_s"`
	RecvWaitWallNs int64       `json:"recv_wait_wall_ns"`
	BarrierWaitSim float64     `json:"barrier_wait_sim_s"`
	Ops            []OpMetrics `json:"ops,omitempty"`
}

// Metrics is the flat whole-trace metrics document the -metrics flag
// writes: totals, per-rank counters, and the rank×rank traffic matrices.
type Metrics struct {
	Ranks       int     `json:"ranks"`
	Events      int     `json:"events"`
	TotalMsgs   int64   `json:"total_msgs"`
	TotalBytes  int64   `json:"total_bytes"`
	SimMakespan float64 `json:"sim_makespan_s"`
	// BusyImbalance is max/mean per-rank SimBusy (1.0 = perfectly even;
	// 0 when nothing ran).
	BusyImbalance float64       `json:"busy_imbalance"`
	PerRank       []RankMetrics `json:"per_rank"`
	// Ops aggregates every operation across all ranks: counts and
	// durations summed in rank order, histograms merged bucket-wise
	// (exact, by the fixed boundaries), quantiles recomputed from the
	// merged histograms. MergeMetrics rebuilds exactly this list from
	// per-rank documents.
	Ops []OpMetrics `json:"ops,omitempty"`
	// TrafficBytes[src][dst] / TrafficMsgs[src][dst] are payload bytes and
	// message counts sent from src to dst.
	TrafficBytes [][]int64 `json:"traffic_bytes"`
	TrafficMsgs  [][]int64 `json:"traffic_msgs"`
}

// Metrics computes the flat metrics view from the recorders' atomic
// counters; it never reads the event buffer, so it is safe to call while
// ranks record. A mid-run document may lag by a few counts, but every
// sent-side total is a sum of the same loads of each traffic row, so it
// stays internally consistent. After the run it is exact.
func (t *Trace) Metrics() *Metrics {
	m := &Metrics{Ranks: len(t.recs)}
	m.TrafficBytes = make([][]int64, len(t.recs))
	m.TrafficMsgs = make([][]int64, len(t.recs))
	for r, rec := range t.recs {
		m.Events += int(rec.nEvents.Load())
		rm := RankMetrics{
			Rank:           r,
			MsgsRecv:       rec.msgsRecv.Load(),
			BytesRecv:      rec.bytesRecv.Load(),
			SimTotal:       rec.simEnd.load(),
			RecvWaitSim:    rec.recvWaitSim.load(),
			RecvWaitWallNs: rec.recvWaitWall.Load(),
		}
		m.TrafficMsgs[r], rm.MsgsSent = loadRow(rec.sentMsgs)
		m.TrafficBytes[r], rm.BytesSent = loadRow(rec.sentBytes)
		rm.SimBusy = rm.SimTotal - rm.RecvWaitSim
		if rm.SimBusy < 0 {
			rm.SimBusy = 0
		}
		ops := append([]*opRecord(nil), rec.opList()...)
		sort.Slice(ops, func(i, j int) bool { return ops[i].op < ops[j].op })
		for _, o := range ops {
			om := o.metrics()
			rm.Ops = append(rm.Ops, om)
			if CollectiveOps[o.op] {
				rm.Collectives += om.Count
			}
			if o.op == "Barrier" {
				rm.BarrierWaitSim = om.SimS
			}
		}
		m.PerRank = append(m.PerRank, rm)
	}
	m.total()
	return m
}

// total sets the run-level fields from the PerRank rows: message and
// byte totals, the makespan, the busy imbalance and the op aggregates.
// Trace.Metrics and MergeMetrics both call it, so an in-process document
// and the merge of its launched twin are totalled by one fold, in rank
// order.
func (m *Metrics) total() {
	busySum, busyMax := 0.0, 0.0
	agg := map[string]*opAgg{}
	var aggOps []string
	for _, rm := range m.PerRank {
		m.TotalMsgs += rm.MsgsSent
		m.TotalBytes += rm.BytesSent
		if rm.SimTotal > m.SimMakespan {
			m.SimMakespan = rm.SimTotal
		}
		busySum += rm.SimBusy
		if rm.SimBusy > busyMax {
			busyMax = rm.SimBusy
		}
		for _, om := range rm.Ops {
			a := agg[om.Op]
			if a == nil {
				a = &opAgg{simH: &Hist{}, wallH: &Hist{}}
				agg[om.Op] = a
				aggOps = append(aggOps, om.Op)
			}
			a.fold(om)
		}
	}
	if busySum > 0 {
		m.BusyImbalance = busyMax / (busySum / float64(len(m.PerRank)))
	}
	sort.Strings(aggOps)
	for _, op := range aggOps {
		m.Ops = append(m.Ops, agg[op].metrics(op))
	}
}

// loadRow loads one traffic-matrix row and returns it with its sum.
func loadRow(row []atomic.Int64) ([]int64, int64) {
	out := make([]int64, len(row))
	var sum int64
	for d := range row {
		out[d] = row[d].Load()
		sum += out[d]
	}
	return out, sum
}

// metrics loads the record into its exported row.
func (o *opRecord) metrics() OpMetrics {
	simS, wallNs := o.sim.load(), o.wallNs.Load()
	wallH := o.wallHist.load(float64(wallNs))
	return newOpMetrics(o.op, wallH.Count(), simS, wallNs, o.bytes.Load(),
		o.simHist.load(simS), wallH)
}

// opAgg folds per-rank OpMetrics rows into the run-level row. Folding
// goes through the exported row (not the recorder's internal state) on
// purpose: Metrics.total folds rows parsed from per-rank documents
// exactly as it folds the recorders' rows, so the merged run-level
// aggregate reproduces the in-process one — sums in the same rank
// order, histograms as exact bucket additions.
type opAgg struct {
	count, wallNs, bytes int64
	simS                 float64
	simMax               float64
	wallMax              int64
	simH, wallH          *Hist
}

func (a *opAgg) fold(om OpMetrics) {
	a.count += om.Count
	a.simS += om.SimS
	a.wallNs += om.WallNs
	a.bytes += om.Bytes
	if om.SimMax > a.simMax {
		a.simMax = om.SimMax
	}
	if om.WallMax > a.wallMax {
		a.wallMax = om.WallMax
	}
	a.simH.Merge(histFromBuckets(om.SimHist, om.SimS, om.SimMax))
	a.wallH.Merge(histFromBuckets(om.WallHist, float64(om.WallNs), float64(om.WallMax)))
}

func (a *opAgg) metrics(op string) OpMetrics {
	a.simH.max = a.simMax
	a.wallH.max = float64(a.wallMax)
	return newOpMetrics(op, a.count, a.simS, a.wallNs, a.bytes, a.simH, a.wallH)
}

// WriteMetrics writes the metrics document as indented JSON. The live
// endpoint's /metrics serves exactly these bytes.
func (t *Trace) WriteMetrics(w io.Writer) error { return writeJSON(w, t.Metrics()) }

// writeJSON writes v as indented JSON.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
