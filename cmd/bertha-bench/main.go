// Command bertha-bench regenerates the paper's evaluation (§5): every
// table and figure has a subcommand that builds the workload, runs the
// sweep, and prints the corresponding rows.
//
// Usage:
//
//	bertha-bench [flags] <experiment> [<experiment>...]
//
// Experiments:
//
//	fig2       §3.1 Chunnel DAG construction
//	fig3       container networking latency (Figure 3)
//	fig4       dynamic name resolution timeline (Figure 4)
//	fig5       sharding scenarios (Figure 5)
//	opt        §6 pipeline reordering / TLS fusion ablation
//	consensus  ordered-multicast sequencer placement ablation
//	stack      zero-copy buffer path: allocs/op + latency per round trip
//	batch      vectored SendBufs/RecvBufs burst sweep vs per-message loop
//	connections reactor runtime connection-scaling sweep (1k→100k with -full)
//	all        everything above, in order
//
// Several experiments may be named in one invocation; with -json each
// prints its own JSON document in order (a JSON stream).
//
// The -full flag runs paper-scale parameters (Figure 3: 10000
// connections; Figure 5: 300000 requests); the default is a quick run.
// The -json flag switches the stack experiment to machine-readable
// output, reporting allocations/op and bytes/op alongside the latency
// percentiles. The -telemetry flag adds an instrumented stack scenario
// (with -json, its per-layer telemetry snapshot too). The -trace flag adds a traced scenario:
// sampled requests carry an in-band trace context, every layer records
// spans, and the output reassembles them into per-message trees whose
// per-hop exclusive latencies telescope to the measured end-to-end
// latency (printed as a waterfall plus attribution table).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/bertha-net/bertha/internal/analysis/vetversion"
	"github.com/bertha-net/bertha/internal/bench"
)

func main() {
	full := flag.Bool("full", false, "run paper-scale parameters (slower)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON (stack experiment)")
	telem := flag.Bool("telemetry", false, "add an instrumented stack scenario; -json includes its per-layer telemetry (stack experiment)")
	trace := flag.Bool("trace", false, "run the stack experiment with in-band message tracing and print the reassembled per-hop waterfall and exclusive-latency attribution")
	showVersion := flag.Bool("version", false, "print version (module + vet-suite revision) and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bertha-bench [-full] [-json] [-telemetry] [-trace] {fig2|fig3|fig4|fig5|opt|consensus|stack|batch|coalesce|connections|all}...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *showVersion {
		// Numbers are only comparable across runs vetted by the same rule
		// set, so the benchmark binary stamps the berthavet suite revision
		// alongside the module version.
		fmt.Printf("bertha-bench %s\n", vetversion.String())
		return
	}
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}

	fig3 := bench.Fig3Config{}
	fig4 := bench.Fig4Config{}
	fig5 := bench.Fig5Config{}
	cons := bench.ConsensusConfig{}
	stack := bench.StackConfig{JSON: *jsonOut, Telemetry: *telem, Tracing: *trace}
	batch := bench.BatchConfig{JSON: *jsonOut}
	coalesce := bench.CoalesceConfig{JSON: *jsonOut}
	connections := bench.ConnectionsConfig{JSON: *jsonOut}
	if *full {
		fig3.Connections = 10000
		fig5.Requests = 300000
		fig5.Concurrency = []int{1, 4, 16, 64, 128}
		fig4.Duration = 8 * time.Second
		cons.Ops = 2000
		stack.Messages = 50000
		batch.Messages = 65536
		coalesce.Messages = 65536
		connections.Counts = []int{1000, 10000, 100000}
	} else {
		fig4.Duration = 4 * time.Second
		fig4.LocalStartAt = 2 * time.Second
	}

	var run func(name string) error
	run = func(name string) error {
		switch name {
		case "fig2":
			bench.Fig2(os.Stdout)
			return nil
		case "fig3":
			return bench.Fig3(os.Stdout, fig3)
		case "fig4":
			return bench.Fig4(os.Stdout, fig4)
		case "fig5":
			return bench.Fig5(os.Stdout, fig5)
		case "opt":
			return bench.Opt(os.Stdout)
		case "consensus":
			return bench.Consensus(os.Stdout, cons)
		case "stack":
			return bench.Stack(os.Stdout, stack)
		case "batch":
			return bench.Batch(os.Stdout, batch)
		case "coalesce":
			return bench.Coalesce(os.Stdout, coalesce)
		case "connections":
			return bench.Connections(os.Stdout, connections)
		case "all":
			for _, n := range []string{"fig2", "fig3", "fig4", "fig5", "opt", "consensus", "stack", "batch", "coalesce", "connections"} {
				if err := run(n); err != nil {
					return fmt.Errorf("%s: %w", n, err)
				}
				fmt.Println()
			}
			return nil
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}
	for _, name := range flag.Args() {
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "bertha-bench: %v\n", err)
			os.Exit(1)
		}
	}
}
