package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the program must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func testConfig(t *testing.T, workload string, trace int) config {
	return config{workload: workload, seed: 7, seconds: 1, trace: trace,
		sockDir: t.TempDir(), spanDir: t.TempDir(), opTimeout: opTimeout}
}

// runOnce runs the benchmark in-process and returns its record and
// result, the last two lines of its output.
func runOnce(t *testing.T, cfg config) (record, result) {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, cfg); err != nil {
		t.Fatalf("%s trace=%d: %v", cfg.workload, cfg.trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("output has %d lines, want a record and a result", len(lines))
	}
	var rec record
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatal(err)
	}
	return rec, res
}

func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics, want %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("metric %s unit %q, want %q", w.Name, m.Unit, w.Unit)
		}
	}
}

// checkOutputs checks that a run compared outputs and found none wrong.
// connect-churn is the exception: its known splice hang can leave a
// short window with no completed operation. That must still show as
// timeouts, never as a wrong output.
func checkOutputs(t *testing.T, workload string, res result, rec record) {
	t.Helper()
	if res.Attempted == 0 || rec.Counts["wrong"] != 0 {
		t.Errorf("attempted=%d, %v wrong outputs", res.Attempted, rec.Counts["wrong"])
	}
	if res.Correct && rec.Counts["checked"] > 0 {
		return
	}
	if workload == "connect-churn" && res.Failed > 0 && rec.Counts["wrong"] == 0 {
		t.Logf("no output checked: %d of %d operations failed (the localfast splice hang)", res.Failed, res.Attempted)
		return
	}
	t.Errorf("correct=%v after %v checked outputs; counts %v", res.Correct, rec.Counts["checked"], rec.Counts)
}

// TestWorkloads runs every workload briefly, untraced and traced, and
// checks that each prints exactly the metrics BENCHMARK.json names,
// with their units, after checking the outputs it measured.
func TestWorkloads(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rec, res := runOnce(t, testConfig(t, w.name, 0))
			checkMetrics(t, res.Metrics, spec.EndToEnd)
			checkOutputs(t, w.name, res, rec)
			if rec.Env["go"] == "" || rec.Env["vet"] == "" || rec.Env["nproc"] == nil {
				t.Errorf("environment stamp incomplete: %v", rec.Env)
			}

			rec, res = runOnce(t, testConfig(t, w.name, 1))
			checkMetrics(t, res.Metrics, spec.PerLayer)
			checkOutputs(t, w.name, res, rec)
		})
	}
	names := map[string]bool{}
	for _, w := range workloads {
		names[w.name] = true
	}
	for _, w := range spec.Workloads {
		if !names[w.Name] {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
}

// TestForcedTimeoutCountsAsFailure gives every operation a deadline it
// cannot meet and checks the timeouts are counted as failures: in the
// result's failed count, in fail_frac, and as latency beyond the limit.
func TestForcedTimeoutCountsAsFailure(t *testing.T) {
	cfg := testConfig(t, "rpc-echo", 0)
	cfg.opTimeout = time.Nanosecond
	rec, res := runOnce(t, cfg)
	if res.Failed == 0 || res.Failed != res.Attempted || rec.Counts["timeouts"] == 0 {
		t.Errorf("failed %d of %d attempted, %v timeouts; want every attempt failed by timeout",
			res.Failed, res.Attempted, rec.Counts["timeouts"])
	}
	limit := float64(opTimeout) / 1e3
	for _, w := range rec.Samples["subwindow_ops_p50us_p90us_p99us"].([]any) {
		if p50 := w.([]any)[1].(float64); p50 != limit {
			t.Errorf("sub-window p50 = %v µs with every operation failed, want the %v µs deadline", p50, limit)
		}
	}
	cfg.trace = 1
	_, res = runOnce(t, cfg)
	if f := res.Metrics["fail_frac"].Value; f != 1 {
		t.Errorf("fail_frac = %v with every operation failed, want 1", f)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 1000; v++ {
		h.add(v * 1000)
	}
	if got := h.quantile(0.5, 0); got < 495e3 || got > 505e3 {
		t.Errorf("p50 = %v, want about 500000", got)
	}
	// Failures count as beyond every limit: with half the attempts
	// failed, the median is infinite.
	if got := h.quantile(0.5, 1000); got < 1e300 {
		t.Errorf("p50 with 1000 failures = %v, want +Inf", got)
	}
	if got := h.quantile(0.99, 5); got >= 1e300 {
		t.Errorf("p99 with 5 failures in 1005 = %v, want finite", got)
	}
}
