package telemetry

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/telemetry/tracing"
)

func TestWritePromShapes(t *testing.T) {
	r := New()
	r.SetHealthGauges(false)
	r.Counter("transport/udp/datagrams_sent").Add(7)
	r.Gauge("queue/depth").Set(3)
	h := r.Histogram("negotiate/rtt")
	h.Observe(10 * time.Microsecond)
	h.Observe(20 * time.Microsecond)
	m := r.Conn("transport", "udp")
	m.RecordSend(100, 5*time.Microsecond, nil)

	var b strings.Builder
	r.Snapshot().WriteProm(&b)
	out := b.String()

	for _, want := range []string{
		"# TYPE bertha_transport_udp_datagrams_sent_total counter",
		"bertha_transport_udp_datagrams_sent_total 7",
		"# TYPE bertha_queue_depth gauge",
		"bertha_queue_depth 3",
		"# TYPE bertha_negotiate_rtt histogram",
		"bertha_negotiate_rtt_bucket{le=\"+Inf\"} 2",
		"bertha_negotiate_rtt_count 2",
		"bertha_conn_sends_total{chunnel=\"transport\",impl=\"udp\"} 1",
		"bertha_conn_send_bytes_total{chunnel=\"transport\",impl=\"udp\"} 100",
		"bertha_conn_send_latency_ns_bucket{chunnel=\"transport\",impl=\"udp\",le=\"+Inf\"} 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative: the +Inf bucket equals the
	// count, and every line is either a comment or name{labels} value.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

func TestHealthGauges(t *testing.T) {
	r := New()
	s := r.Snapshot()
	for _, g := range []string{"process/goroutines", "process/heap_inuse_bytes", "wire/bufs_outstanding"} {
		if _, ok := s.Gauges[g]; !ok {
			t.Fatalf("health gauge %q missing from snapshot: %v", g, s.Gauges)
		}
	}
	if s.Gauges["process/goroutines"] <= 0 {
		t.Fatalf("goroutine gauge = %d, want > 0", s.Gauges["process/goroutines"])
	}
	if s.Gauges["process/heap_inuse_bytes"] <= 0 {
		t.Fatal("heap gauge not refreshed")
	}
	r.SetHealthGauges(false)
	r2 := New()
	r2.SetHealthGauges(false)
	if s2 := r2.Snapshot(); len(s2.Gauges) != 0 {
		t.Fatalf("health gauges written despite SetHealthGauges(false): %v", s2.Gauges)
	}
}

func TestHandlerPromAndSpans(t *testing.T) {
	r := New()
	r.SetHealthGauges(false)
	r.Counter("x/y").Inc()
	ring := r.EnableSpans(64)
	h := ring.Handle("transport", "udp")
	start := time.Now()
	h.Record(tracing.KindSend, 0xAB, start, time.Microsecond, 10, 1, 0, false)
	h.Record(tracing.KindRecv, 0xAB, start.Add(2*time.Microsecond), time.Microsecond, 10, 1, 1, false)

	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String()
	}

	if out := get("?format=prom"); !strings.Contains(out, "bertha_x_y_total 1") ||
		!strings.Contains(out, "bertha_trace_spans_total 2") {
		t.Fatalf("prom endpoint:\n%s", out)
	}
	if out := get("?spans=all"); !strings.Contains(out, "\"enabled\": true") ||
		!strings.Contains(out, "\"trace_id\": 171") || !strings.Contains(out, "\"complete\": true") {
		t.Fatalf("spans endpoint:\n%s", out)
	}
	if out := get("?spans=ab"); !strings.Contains(out, "\"trace_id\": 171") {
		t.Fatalf("spans filter by hex ID:\n%s", out)
	}
	if out := get("?spans=ffff"); strings.Contains(out, "\"trace_id\"") {
		t.Fatalf("spans filter must exclude other IDs:\n%s", out)
	}
	// Default JSON document still works and carries span_total.
	if out := get(""); !strings.Contains(out, "\"span_total\": 2") {
		t.Fatalf("snapshot JSON missing span_total:\n%s", out)
	}
}
