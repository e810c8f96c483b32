// Command perfbench is the repository's benchmark: four workloads driven
// through the public bertha API on loopback from one process, each
// checked for correct outputs while it is measured.
//
//	perfbench --workload rpc-echo --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// repeats the workload with the benchmark's span wrappers around each
// layer and prints the per-layer metrics. The last line of standard
// output is the result object; the line before it records the
// environment and the raw per-run samples. BENCHMARK.json lists the
// workloads and metrics; perfbench/run.sh builds and runs this command.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/bertha-net/bertha/internal/analysis/vetversion"
	"github.com/bertha-net/bertha/internal/telemetry"
)

// instance is one set-up workload: servers, endpoints and connected
// clients, ready to run operations.
type instance interface {
	// run performs closed-loop operations until `until` (or maxOps per
	// client, when nonzero), recording into st.
	run(ctx context.Context, until time.Time, maxOps int, st *opStats)
	// connect opens one more connection on the workload's stack (the
	// connect probe); workloads that connect per operation ignore it.
	connect(ctx context.Context, st *opStats)
	shutdown()
}

type setupFunc func(ctx context.Context, seed int64, tr *tracer, cfg config) (instance, error)

type workload struct {
	name    string
	warmOps int // operations per client run before the first measured one
	probe   bool
	setup   setupFunc
	// hand builds the workload's chunnels hand-assembled, without the
	// runtime (nil when the workload has no such stack).
	hand setupFunc
}

var workloads = []workload{
	{name: "rpc-echo", warmOps: 2000, probe: true,
		setup: func(ctx context.Context, seed int64, tr *tracer, _ config) (instance, error) {
			return setupEcho(ctx, seed, tr, false, false)
		},
		hand: func(ctx context.Context, seed int64, tr *tracer, _ config) (instance, error) {
			return setupEcho(ctx, seed, tr, false, true)
		}},
	{name: "stream", warmOps: 2000, probe: true,
		setup: func(ctx context.Context, seed int64, tr *tracer, _ config) (instance, error) {
			return setupEcho(ctx, seed, tr, true, false)
		},
		hand: func(ctx context.Context, seed int64, tr *tracer, _ config) (instance, error) {
			return setupEcho(ctx, seed, tr, true, true)
		}},
	{name: "kv-ycsb", warmOps: 1000, probe: true,
		setup: func(ctx context.Context, seed int64, tr *tracer, _ config) (instance, error) {
			return setupKV(ctx, seed, tr)
		}},
	{name: "connect-churn", warmOps: 20,
		setup: func(ctx context.Context, seed int64, tr *tracer, cfg config) (instance, error) {
			return setupChurn(ctx, seed, tr, cfg.sockDir)
		}},
}

const (
	rounds = 5 // set-ups per untraced run, each measured for --seconds/rounds
	// probeConns is the connect probe of a traced run: connections
	// opened on the workload's stack after its window.
	probeConns = 500
	runLimit   = 170 * time.Second
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	commit   string
	sockDir  string
	spanDir  string
	// opTimeout overrides every operation's deadline (the self-test
	// forces timeouts with it).
	opTimeout time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: rpc-echo, stream, kv-ycsb or connect-churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&cfg.seconds, "seconds", 30, "seconds of measurement, split among the run's windows")
	flag.IntVar(&cfg.trace, "trace", 0, "1: print the per-layer metrics of a traced run")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision, recorded with the result")
	flag.StringVar(&cfg.sockDir, "sockdir", filepath.Join(".bench_build", "sock"), "directory for UNIX sockets")
	flag.StringVar(&cfg.spanDir, "spandir", filepath.Join(".bench_build", "spans"), "directory traced runs write their spans to")
	flag.Parse()
	cfg.opTimeout = opTimeout

	// Every operation has a deadline and teardown waits are bounded; this
	// is the last resort if the program still wedges the run.
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is printed before the result: the environment and the raw
// samples the metrics were computed from.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    int                `json:"trace"`
	Env      map[string]any     `json:"env"`
	Samples  map[string]any     `json:"samples"`
	Counts   map[string]float64 `json:"counts"`
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func run(out io.Writer, cfg config) error {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return err
	}
	if cfg.seconds < 1 || cfg.seconds > secondsMax {
		return fmt.Errorf("--seconds %d outside 1..%d", cfg.seconds, secondsMax)
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", cfg.trace)
	}
	rec := record{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Env: environment(cfg.commit), Samples: map[string]any{}, Counts: map[string]float64{}}
	var res result
	if cfg.trace == 0 {
		res, err = runUntraced(w, cfg, &rec)
	} else {
		res, err = runTraced(w, cfg, &rec)
	}
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(rec); err != nil {
		return err
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return enc.Encode(res)
}

// measurement is one measured window and the process's state around it.
type measurement struct {
	st         *opStats
	probe      *opStats // connect probe, nil when there was none
	elapsed    time.Duration
	allocs     uint64
	gcCycles   uint32
	goroutines int
	heapBytes  uint64
	drops      uint64
}

func (m *measurement) attempted() uint64 {
	n := m.st.attempted()
	if m.probe != nil {
		n += m.probe.attempted()
	}
	return n
}

func (m *measurement) failed() uint64 {
	n := m.st.failed.Load()
	if m.probe != nil {
		n += m.probe.failed.Load()
	}
	return n
}

func (m *measurement) opsPerSec() float64 {
	return float64(m.st.lat.count()) / m.elapsed.Seconds()
}

// connectStats is where the workload's Connect latencies were recorded:
// the connect probe, or the window itself.
func (m *measurement) connectStats() *opStats {
	if m.probe != nil {
		return m.probe
	}
	return m.st
}

// setUp builds an instance and runs its warm-up operations, returning
// how long that took. A wrong output during warm-up fails the run's
// correctness like one in the window.
func setUp(ctx context.Context, w workload, build setupFunc, cfg config, tr *tracer) (instance, time.Duration, bool, error) {
	t0 := time.Now()
	in, err := build(ctx, cfg.seed, tr, cfg)
	if err != nil {
		return nil, 0, false, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	warm := newOpStats()
	warm.timeout = cfg.opTimeout
	in.run(ctx, t0.Add(time.Hour), w.warmOps, warm)
	return in, time.Since(t0), warm.wrong.Load() == 0, nil
}

// measure runs one window of d on in, then, when probe is set and the
// workload has one, the connect probe.
func measure(ctx context.Context, w workload, in instance, d time.Duration, cfg config, probe bool) *measurement {
	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g0, d0 := runtime.NumGoroutine(), drops()
	st := newWindowStats(d, max(1, int(d/time.Second)))
	st.timeout = cfg.opTimeout
	in.run(ctx, st.start.Add(d), 0, st)
	m := &measurement{st: st, elapsed: time.Since(st.start)}
	runtime.ReadMemStats(&m1)
	m.goroutines = runtime.NumGoroutine() - g0
	m.drops = drops() - d0
	m.allocs = m1.Mallocs - m0.Mallocs
	m.gcCycles = m1.NumGC - m0.NumGC
	runtime.GC()
	runtime.ReadMemStats(&m2)
	m.heapBytes = m2.HeapAlloc
	if probe && w.probe {
		m.probe = newOpStats()
		m.probe.timeout = cfg.opTimeout
		for i := 0; i < probeConns; i++ {
			in.connect(ctx, m.probe)
		}
	}
	return m
}

// drops sums the reactor drop counters of every transport.
func drops() uint64 {
	var n uint64
	for _, net := range []string{"udp", "unix", "pipe"} {
		for _, c := range []string{"datagrams_dropped_queue_full", "accept_dropped", "datagrams_dropped_malformed"} {
			n += telemetry.Default().Counter("transport/" + net + "/" + c).Value()
		}
	}
	return n
}

// runUntraced splits --seconds among rounds, each on a freshly set-up
// instance, and reports rates over all the rounds' measured time: a run
// samples several set-ups of the program, not one.
func runUntraced(w workload, cfg config, rec *record) (result, error) {
	ctx := context.Background()
	d := time.Duration(cfg.seconds) * time.Second / rounds
	var ms []*measurement
	var setups []float64
	warmOK := true
	for r := 0; r < rounds; r++ {
		in, took, ok, err := setUp(ctx, w, w.setup, cfg, nil)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, took.Seconds())
		m := measure(ctx, w, in, d, cfg, false)
		in.shutdown()
		warmOK = warmOK && ok
		ms = append(ms, m)
	}
	res := result{Correct: warmOK && correct(ms), Metrics: endToEnd(ms, setups)}
	var perWin [][4]float64
	var connect hist
	var connFailed uint64
	counts := map[string]float64{}
	for _, m := range ms {
		res.Attempted += m.attempted()
		res.Failed += m.failed()
		st := m.st
		for i := range st.win {
			w := &st.win[i]
			f := w.failed.Load()
			perWin = append(perWin, [4]float64{float64(w.lat.count()),
				latencyUs(&w.lat, 0.5, f), latencyUs(&w.lat, 0.9, f), latencyUs(&w.lat, 0.99, f)})
		}
		connect.merge(&st.connect)
		connFailed += st.connectFailed.Load()
		counts["window_s"] += m.elapsed.Seconds()
		counts["ops"] += float64(st.lat.count())
		counts["failed"] += float64(st.failed.Load())
		counts["timeouts"] += float64(st.timeouts.Load())
		counts["wrong"] += float64(st.wrong.Load())
		counts["checked"] += float64(st.checked.Load())
		counts["drops"] += float64(m.drops)
		counts["goroutines_delta"] += float64(m.goroutines)
	}
	if connect.count()+connFailed > 0 {
		counts["connects"] = float64(connect.count())
		counts["connect_failed"] = float64(connFailed)
		counts["connect_p50_us"] = latencyUs(&connect, 0.5, connFailed)
		counts["connect_p99_us"] = latencyUs(&connect, 0.99, connFailed)
	}
	rec.Samples["setup_s"] = setups
	rec.Samples["subwindow_ops_p50us_p90us_p99us"] = perWin
	rec.Counts = counts
	return res, nil
}

// endToEnd computes the end-to-end metrics of untraced rounds: each
// rate over all their measured time, and the median round's live heap
// and set-up time. Latency quantiles stay in the record (see METRICS.md
// for why).
func endToEnd(ms []*measurement, setups []float64) map[string]metric {
	var ops, bytes, secs float64
	var heap []float64
	for _, m := range ms {
		ops += float64(m.st.lat.count())
		bytes += float64(m.st.bytes.Load())
		secs += m.elapsed.Seconds()
		heap = append(heap, float64(m.heapBytes)/1e6)
	}
	return map[string]metric{
		"ops_per_s":    {ops / secs, "1/s"},
		"goodput_mb_s": {bytes / secs / 1e6, "MB/s"},
		"heap_mb":      {median(heap), "MB"},
		"setup_s":      {median(setups), "s"},
	}
}

// latencyUs is a latency quantile over every attempt in µs. A quantile
// that falls among the failed attempts is beyond any limit, and reads as
// the operation deadline, the limit every operation is held to.
func latencyUs(h *hist, q float64, failed uint64) float64 {
	v := h.quantile(q, failed)
	if math.IsInf(v, 1) {
		v = float64(opTimeout)
	}
	return v / 1e3
}

// runTraced measures the workload untraced, then again with the span
// wrappers, then (where the workload has one) its hand-assembled stack
// both ways, splitting --seconds evenly among the windows.
func runTraced(w workload, cfg config, rec *record) (result, error) {
	ctx := context.Background()
	windows := 2
	if w.hand != nil {
		windows = 4
	}
	d := time.Duration(cfg.seconds) * time.Second / time.Duration(windows)
	var ms []*measurement
	warmOK := true
	window := func(build setupFunc, tr *tracer, probe bool) (*measurement, error) {
		in, _, ok, err := setUp(ctx, w, build, cfg, tr)
		if err != nil {
			return nil, err
		}
		m := measure(ctx, w, in, d, cfg, probe)
		in.shutdown()
		warmOK = warmOK && ok
		ms = append(ms, m)
		return m, nil
	}
	plain, err := window(w.setup, nil, false)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	traced, err := window(w.setup, tr, true)
	if err != nil {
		return result{}, err
	}
	handTr := newTracer()
	var handPlain *measurement
	if w.hand != nil {
		if handPlain, err = window(w.hand, nil, false); err != nil {
			return result{}, err
		}
		if _, err = window(w.hand, handTr, false); err != nil {
			return result{}, err
		}
	}

	cs := traced.connectStats()
	overhead := 0.0
	if handPlain != nil {
		overhead = latencyUs(&plain.st.lat, 0.5, plain.st.failed.Load()) -
			latencyUs(&handPlain.st.lat, 0.5, handPlain.st.failed.Load())
	}
	localfastTimeouts := 0.0
	if w.name == "connect-churn" {
		localfastTimeouts = float64(plain.st.timeouts.Load())
	}
	ps := plain.st
	us := func(h *hist, q float64) float64 { return h.quantile(q, 0) / 1e3 }
	metrics := map[string]metric{
		"transport.send_us":            {tr.selfQuantile("transport.send", 0.5), "us"},
		"transport.recv_wait_us":       {tr.selfQuantile("transport.recv", 0.5), "us"},
		"transport.msgs_per_send_call": {ratio(float64(tr.sendMsgs.Load()), float64(tr.sendCalls.Load())), "msgs/call"},
		"transport.drops":              {float64(plain.drops), "count"},
		"transport.dial_us":            {us(&cs.dial, 0.5), "us"},
		"serialize.send_self_us":       {handTr.selfQuantile("serialize.send", 0.5), "us"},
		"serialize.recv_self_us":       {handTr.selfQuantile("serialize.recv", 0.5), "us"},
		"crypt.send_self_us":           {handTr.selfQuantile("crypt.send", 0.5), "us"},
		"crypt.recv_self_us":           {handTr.selfQuantile("crypt.recv", 0.5), "us"},
		"framing.send_self_us":         {handTr.selfQuantile("framing.send", 0.5), "us"},
		"framing.recv_self_us":         {handTr.selfQuantile("framing.recv", 0.5), "us"},
		"core.runtime_overhead_us":     {overhead, "us"},
		"core.coalesce_wait_p50_us":    {us(&tr.coalesceWait, 0.5), "us"},
		"core.coalesce_wait_p99_us":    {us(&tr.coalesceWait, 0.99), "us"},
		"core.connect_us":              {us(&cs.connect, 0.5), "us"},
		"core.negotiate_self_us":       {us(&tr.negotiateSelf, 0.5), "us"},
		"discovery.query_us":           {tr.selfQuantile("discovery.query", 0.5), "us"},
		"discovery.calls_per_conn":     {ratio(float64(tr.discoveryCalls.Load()), float64(cs.connect.count())), "calls/conn"},
		"localfast.timeouts":           {localfastTimeouts, "count"},
		"shard.push_p50_us":            {us(&ps.push, 0.5), "us"},
		"shard.xdp_p50_us":             {us(&ps.xdp, 0.5), "us"},
		"kv.server_self_us":            {us(&tr.kvServerSelf, 0.5), "us"},
		"kv.read_p50_us":               {us(&ps.read, 0.5), "us"},
		"kv.update_p50_us":             {us(&ps.update, 0.5), "us"},
		"ycsb.next_ns":                 {ps.next.quantile(0.5, 0), "ns"},
		"process.allocs_per_op":        {ratio(float64(plain.allocs), float64(ps.attempted())), "allocs/op"},
		"process.gc_cycles":            {float64(plain.gcCycles), "count"},
		"process.goroutines_delta":     {float64(plain.goroutines), "count"},
		"trace.overhead_frac":          {ratio(traced.opsPerSec(), plain.opsPerSec()) - 1, "ratio"},
		"fail_frac":                    {ratio(float64(ps.failed.Load()), float64(ps.attempted())), "ratio"},
	}
	path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := os.MkdirAll(cfg.spanDir, 0o755); err != nil {
		return result{}, err
	}
	if err := tr.writeSpans(path); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	rec.Samples["spans_file"] = path
	rec.Counts["plain_ops_per_s"] = plain.opsPerSec()
	rec.Counts["traced_ops_per_s"] = traced.opsPerSec()
	rec.Counts["window_s"] = d.Seconds()
	res := result{Correct: warmOK && correct(ms), Metrics: metrics}
	for _, m := range ms {
		res.Attempted += m.attempted()
		res.Failed += m.failed()
		rec.Counts["checked"] += float64(m.st.checked.Load())
		rec.Counts["wrong"] += float64(m.st.wrong.Load())
	}
	if !warmOK {
		rec.Counts["wrong_in_warmup"] = 1
	}
	return res, nil
}

// correct reports whether the windows checked some output and every
// check passed.
func correct(ms []*measurement) bool {
	var checked, wrong uint64
	for _, m := range ms {
		checked += m.st.checked.Load()
		wrong += m.st.wrong.Load()
	}
	return checked > 0 && wrong == 0
}

// ratio is a / b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// environment stamps a result with what it ran on.
func environment(commit string) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"vet":        vetversion.String(),
		"commit":     commit,
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
