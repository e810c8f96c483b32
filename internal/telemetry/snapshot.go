package telemetry

import (
	"io"
	"math"
	"sort"

	"github.com/bertha-net/bertha/internal/stats"
)

// Snapshot is a point-in-time copy of a Registry, shaped for JSON
// encoding (the /debug/bertha document) and table rendering.
type Snapshot struct {
	// Counters merges named counters and registered probes.
	Counters map[string]uint64 `json:"counters"`
	// Gauges are the named gauge levels.
	Gauges map[string]int64 `json:"gauges,omitempty"`
	// Histograms are the named free-standing histograms.
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
	// Conns are the per-(chunnel type, impl) data-plane metrics, sorted
	// by chunnel then impl.
	Conns []ConnStats `json:"chunnels"`
	// Trace is the retained negotiation event ring, oldest first.
	Trace []TraceEvent `json:"trace"`
	// TraceTotal is the number of events ever recorded (events beyond
	// len(Trace) have been overwritten).
	TraceTotal uint64 `json:"trace_total"`
	// SpanTotal is the number of message spans ever recorded into the
	// tracing ring; absent when tracing is not enabled. The spans
	// themselves are served by /debug/bertha?spans=.
	SpanTotal uint64 `json:"span_total,omitempty"`
}

// HistogramStats is a histogram readout in microseconds.
type HistogramStats struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_us"`
	P50   float64 `json:"p50_us"`
	P95   float64 `json:"p95_us"`
	P99   float64 `json:"p99_us"`

	// raw keeps the full bucket array for renderings that need more than
	// the quantile digest (the Prometheus exposition's cumulative
	// _bucket series). Unexported so the JSON document stays small.
	raw HistogramSnapshot
}

// BatchStats is a burst-size readout in messages per vectored call,
// present only for connections that saw SendBufs/RecvBufs traffic.
type BatchStats struct {
	// Bursts is the number of vectored calls recorded.
	Bursts uint64 `json:"bursts"`
	// Mean, P50, and P95 are burst sizes in messages.
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
}

// ConnStats is one (chunnel type, impl) pair's data-plane readout.
type ConnStats struct {
	Chunnel     string         `json:"chunnel"`
	Impl        string         `json:"impl"`
	Sends       uint64         `json:"sends"`
	Recvs       uint64         `json:"recvs"`
	SendBytes   uint64         `json:"send_bytes"`
	RecvBytes   uint64         `json:"recv_bytes"`
	SendErrs    uint64         `json:"send_errors"`
	RecvErrs    uint64         `json:"recv_errors"`
	SendLatency HistogramStats `json:"send_latency_us"`
	RecvLatency HistogramStats `json:"recv_latency_us"`
	// SendBatch and RecvBatch are the realized burst-size distributions,
	// nil when no vectored traffic was recorded.
	SendBatch *BatchStats `json:"send_batch,omitempty"`
	RecvBatch *BatchStats `json:"recv_batch,omitempty"`
}

// histStats converts a snapshot, mapping NaN (empty histogram) to 0 so
// the JSON encoding never fails.
func histStats(s HistogramSnapshot) HistogramStats {
	z := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return v
	}
	return HistogramStats{
		Count: s.Count,
		Mean:  z(s.Mean()),
		P50:   z(s.Quantile(0.50)),
		P95:   z(s.Quantile(0.95)),
		P99:   z(s.Quantile(0.99)),
		raw:   s,
	}
}

// batchStats converts a value-histogram snapshot into a burst-size
// readout, returning nil when no bursts were recorded so the field
// stays out of the JSON document.
func batchStats(s HistogramSnapshot) *BatchStats {
	if s.Count == 0 {
		return nil
	}
	z := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return v
	}
	return &BatchStats{
		Bursts: s.Count,
		Mean:   z(s.ValueMean()),
		P50:    z(s.ValueQuantile(0.50)),
		P95:    z(s.ValueQuantile(0.95)),
	}
}

// Snapshot copies the registry's current state. Probes run under the
// registry lock; they must be plain atomic loads.
func (r *Registry) Snapshot() Snapshot {
	// Refresh health gauges first: Gauge takes the registry lock itself.
	r.refreshHealth()
	r.mu.Lock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)+len(r.probes)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramStats, len(r.hists)),
		Conns:      make([]ConnStats, 0, len(r.conns)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, fn := range r.probes {
		s.Counters[name] = fn()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, fn := range r.gprobes {
		s.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		s.Histograms[name] = histStats(h.Snapshot())
	}
	for _, m := range r.conns {
		s.Conns = append(s.Conns, ConnStats{
			Chunnel:     m.Chunnel,
			Impl:        m.Impl,
			Sends:       m.Sends.Value(),
			Recvs:       m.Recvs.Value(),
			SendBytes:   m.SendBytes.Value(),
			RecvBytes:   m.RecvBytes.Value(),
			SendErrs:    m.SendErrs.Value(),
			RecvErrs:    m.RecvErrs.Value(),
			SendLatency: histStats(m.SendLatency.Snapshot()),
			RecvLatency: histStats(m.RecvLatency.Snapshot()),
			SendBatch:   batchStats(m.SendBatch.Snapshot()),
			RecvBatch:   batchStats(m.RecvBatch.Snapshot()),
		})
	}
	trace := r.trace
	spans := r.spans
	r.mu.Unlock()
	if spans != nil {
		s.SpanTotal = spans.Total()
	}

	sort.Slice(s.Conns, func(i, j int) bool {
		if s.Conns[i].Chunnel != s.Conns[j].Chunnel {
			return s.Conns[i].Chunnel < s.Conns[j].Chunnel
		}
		return s.Conns[i].Impl < s.Conns[j].Impl
	})
	// The trace ring has its own lock; read it outside ours.
	s.Trace = trace.Events()
	s.TraceTotal = trace.Total()
	return s
}

// WriteText renders the snapshot as fixed-width tables in the same
// shape as the benchmark harness output: one table of counters, one of
// per-chunnel data-plane metrics, and the retained trace events.
func (s Snapshot) WriteText(w io.Writer) {
	if len(s.Counters) > 0 {
		ct := stats.NewTable("telemetry: counters", "name", "value")
		for _, name := range sortedKeys(s.Counters) {
			ct.AddRow(name, s.Counters[name])
		}
		ct.Render(w)
		io.WriteString(w, "\n")
	}
	if len(s.Gauges) > 0 {
		gt := stats.NewTable("telemetry: gauges", "name", "value")
		for _, name := range sortedKeys(s.Gauges) {
			gt.AddRow(name, s.Gauges[name])
		}
		gt.Render(w)
		io.WriteString(w, "\n")
	}
	if len(s.Conns) > 0 {
		tt := stats.NewTable("telemetry: per-chunnel data plane (latency µs, inclusive of layers below)",
			"chunnel", "impl", "sends", "recvs", "errs", "send p50", "send p95", "send p99", "recv p95")
		for _, c := range s.Conns {
			tt.AddRow(c.Chunnel, c.Impl, c.Sends, c.Recvs, c.SendErrs+c.RecvErrs,
				c.SendLatency.P50, c.SendLatency.P95, c.SendLatency.P99, c.RecvLatency.P95)
		}
		tt.Render(w)
		io.WriteString(w, "\n")
	}
	batched := false
	for _, c := range s.Conns {
		if c.SendBatch != nil || c.RecvBatch != nil {
			batched = true
			break
		}
	}
	if batched {
		bt := stats.NewTable("telemetry: batch sizes (messages per vectored call)",
			"chunnel", "impl", "dir", "bursts", "mean", "p50", "p95")
		for _, c := range s.Conns {
			if c.SendBatch != nil {
				bt.AddRow(c.Chunnel, c.Impl, "send", c.SendBatch.Bursts, c.SendBatch.Mean, c.SendBatch.P50, c.SendBatch.P95)
			}
			if c.RecvBatch != nil {
				bt.AddRow(c.Chunnel, c.Impl, "recv", c.RecvBatch.Bursts, c.RecvBatch.Mean, c.RecvBatch.P50, c.RecvBatch.P95)
			}
		}
		bt.Render(w)
		io.WriteString(w, "\n")
	}
	if len(s.Trace) > 0 {
		et := stats.NewTable("telemetry: negotiation trace (oldest first)",
			"seq", "endpoint", "side", "kind", "chunnel", "impl", "µs", "detail")
		for _, e := range s.Trace {
			et.AddRow(e.Seq, e.Endpoint, e.Side, e.Kind, e.Chunnel, e.Impl, e.Micros, e.Detail)
		}
		et.Render(w)
	}
}
