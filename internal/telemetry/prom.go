// Prometheus text-exposition rendering of a Snapshot, so standard
// scrapers can consume /debug/bertha?format=prom without adding a
// client-library dependency. The format is the stable text/plain
// version 0.0.4 exposition: # TYPE lines, one sample per line,
// histograms as cumulative _bucket series plus _sum/_count.
package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// promName sanitizes a registry name ("transport/udp/datagrams_sent")
// into a Prometheus metric name ("bertha_transport_udp_datagrams_sent").
func promName(name string) string {
	var b strings.Builder
	b.WriteString("bertha_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabel escapes a label value per the exposition format.
func promLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// writePromHist renders one histogram as cumulative buckets in raw
// nanosecond (or raw-value) units. Only buckets that received
// observations emit a series, plus the +Inf catch-all; cumulative
// counts make sparse emission valid exposition.
func writePromHist(w io.Writer, name, labels string, s HistogramSnapshot) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for b, n := range s.Buckets {
		if n == 0 {
			continue
		}
		cum += n
		_, hi := bucketBounds(b)
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, hi, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, s.Count)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %d\n", name, s.Sum)
		fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %d\n", name, labels, s.Sum)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, s.Count)
	}
}

// WriteProm renders the snapshot in Prometheus text exposition format.
// Counters get a _total suffix; histograms emit their full log₂ bucket
// arrays as cumulative _bucket series with nanosecond (duration
// histograms) or raw-unit (value histograms) upper bounds.
func (s Snapshot) WriteProm(w io.Writer) {
	for _, name := range sortedKeys(s.Counters) {
		n := promName(name) + "_total"
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		n := promName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", n, n, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		writePromHist(w, promName(name), "", s.Histograms[name].raw)
	}

	// Per-(chunnel, impl) data-plane series, labeled.
	connCounter := func(metric string, get func(ConnStats) uint64) {
		n := "bertha_conn_" + metric + "_total"
		fmt.Fprintf(w, "# TYPE %s counter\n", n)
		for _, c := range s.Conns {
			fmt.Fprintf(w, "%s{chunnel=\"%s\",impl=\"%s\"} %d\n",
				n, promLabel(c.Chunnel), promLabel(c.Impl), get(c))
		}
	}
	if len(s.Conns) > 0 {
		connCounter("sends", func(c ConnStats) uint64 { return c.Sends })
		connCounter("recvs", func(c ConnStats) uint64 { return c.Recvs })
		connCounter("send_bytes", func(c ConnStats) uint64 { return c.SendBytes })
		connCounter("recv_bytes", func(c ConnStats) uint64 { return c.RecvBytes })
		connCounter("send_errors", func(c ConnStats) uint64 { return c.SendErrs })
		connCounter("recv_errors", func(c ConnStats) uint64 { return c.RecvErrs })
		for _, c := range s.Conns {
			labels := fmt.Sprintf("chunnel=\"%s\",impl=\"%s\"", promLabel(c.Chunnel), promLabel(c.Impl))
			if c.SendLatency.Count > 0 {
				writePromHist(w, "bertha_conn_send_latency_ns", labels, c.SendLatency.raw)
			}
			if c.RecvLatency.Count > 0 {
				writePromHist(w, "bertha_conn_recv_latency_ns", labels, c.RecvLatency.raw)
			}
		}
	}

	fmt.Fprintf(w, "# TYPE bertha_negotiation_trace_events_total counter\nbertha_negotiation_trace_events_total %d\n", s.TraceTotal)
	if s.SpanTotal > 0 {
		fmt.Fprintf(w, "# TYPE bertha_trace_spans_total counter\nbertha_trace_spans_total %d\n", s.SpanTotal)
	}
}
