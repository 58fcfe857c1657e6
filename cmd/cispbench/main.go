// Command cispbench regenerates the paper's tables and figures as text.
//
// Usage:
//
//	cispbench [-scale small|medium|full] [-seed N] [-fig all|2,3,4a,...]
//	          [-parallel N] [-workers N] [-mode packet|fluid] [-flows N]
//	          [-obs addr] [-trace file] [-progress] [-obshold secs]
//
// An unknown -fig, -scale or -mode value exits 2 before anything runs.
//
// Independent figures execute concurrently in a bounded pool (-parallel,
// GOMAXPROCS wide by default); output is still emitted in figure order,
// streamed as each figure completes (-parallel 1 streams within figures
// too, like a plain sequential run). The figures of a run share the
// Step-1 worlds most of them design on — the US cities, and the cities
// plus data-center sites — each built once, on first use; designs,
// simulations and line-of-sight variants stay per figure, so peak memory
// still grows with -parallel. Concurrent figures contend for CPU, so
// wall-clock figures (Fig 2's runtime columns) are only faithful at
// -parallel 1 — which is also the sequential memory profile for -scale
// full on small machines.
// -workers bounds the inner worker pool the design and link-build hot
// paths fan out on. Each figure's output is the same rows/series the paper
// reports.
// -mode and -flows drive the "6s" traffic-mix replay: -mode=packet runs
// the discrete-event engine (clamped to ~1.5k flows), -mode=fluid the
// flow-level max-min engine, which replays the same scenario with 10⁵-10⁶
// concurrent flows. -flows also sizes the "te" traffic-engineering
// comparison and the "avail" failure-resilience study (both always report
// both engine modes); "avail" additionally runs a year-scale analytic
// availability comparison of no-protection vs fast-reroute vs full
// reoptimization (internal/resilience). "users" runs the million-user
// scenario suite (internal/workload): population-driven per-application
// workloads — evening peak, flash crowd, disaster surge, CDN placement —
// replayed end to end on the hybrid backbone against a fiber-only
// baseline in both engines.
//
// -obs serves live observability (internal/obs) while the run executes:
// Prometheus /metrics, /metrics.json, the stage trace at /trace, a
// /healthz probe, and net/http/pprof under /debug/pprof. -trace writes
// the stage trace as Chrome trace_event JSON on exit (load it in
// chrome://tracing or Perfetto); same-seed runs write byte-identical
// files. -progress prints a stderr line per completed stage (path,
// elapsed, items/sec). -obshold keeps the -obs endpoint up N seconds
// after the run for a final scrape.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"cisp"
	"cisp/internal/experiments"
	"cisp/internal/netsim"
	"cisp/internal/obs"
	"cisp/internal/parallel"
)

func main() {
	scale := flag.String("scale", "small", "scenario scale: small, medium, full")
	seed := flag.Int64("seed", 1, "scenario seed")
	par := flag.Int("parallel", 0, "concurrent figure runs (0 = GOMAXPROCS, 1 = sequential)")
	workers := flag.Int("workers", 0, "inner worker-pool width for the design/link-build hot paths (0 = GOMAXPROCS)")
	modeStr := flag.String("mode", "fluid", "simulation engine for the 6s traffic-mix replay: packet or fluid")
	flows := flag.Int("flows", 100_000, "concurrent flows for the 6s traffic-mix replay and the te comparison (packet engines clamp to ~1.5k)")
	obsAddr := flag.String("obs", "", "serve live observability on this address (e.g. :9090): /metrics, /metrics.json, /trace, /healthz, /debug/pprof")
	traceFile := flag.String("trace", "", "write the run's stage trace (Chrome trace_event JSON, chrome://tracing / Perfetto) to this file on exit")
	progress := flag.Bool("progress", false, "print per-stage progress lines (stage, elapsed, items/sec) to stderr as spans complete")
	obsHold := flag.Int("obshold", 0, "with -obs, keep the endpoint up this many seconds after the run finishes (final scrape window)")

	// The spec closures run only after flag.Parse, so they may dereference
	// the flag pointers and derive scale-dependent sweeps from the Options
	// they receive.
	var mode netsim.Mode
	budgetsFor := func(o experiments.Options) []float64 {
		if o.Scale == cisp.ScaleSmall {
			return []float64{0, 100, 250, 500, 1000}
		}
		return []float64{0, 200, 500, 1000, 2000, 4000}
	}
	aggregatesFor := func(o experiments.Options) []float64 {
		if o.Scale == cisp.ScaleSmall {
			return []float64{10, 25, 50, 100, 200}
		}
		return []float64{20, 50, 100, 200, 500, 1000}
	}
	loads := []float64{10, 30, 50, 70, 90, 110, 140, 170}

	all := []experiments.Spec{
		{Name: "2", Run: func(o experiments.Options) {
			sizes := []int{4, 6, 8, 10, 12}
			if o.Scale != cisp.ScaleSmall {
				sizes = []int{5, 10, 15, 20, 30, 40, 60}
			}
			experiments.Fig2Scaling(o, sizes, 12, 5)
		}},
		{Name: "3", Run: func(o experiments.Options) { experiments.Fig3USNetwork(o) }},
		{Name: "4a", Run: func(o experiments.Options) { experiments.Fig4aStretchVsBudget(o, budgetsFor(o)) }},
		{Name: "4b", Run: func(o experiments.Options) { experiments.Fig4bDisjointPaths(o, 20) }},
		{Name: "4c", Run: func(o experiments.Options) { experiments.Fig4cCostPerGB(o, aggregatesFor(o)) }},
		{Name: "5", Run: func(o experiments.Options) {
			experiments.Fig5Perturbation(o, []float64{0, 0.1, 0.3, 0.5}, loads)
		}},
		{Name: "6", Run: func(o experiments.Options) { experiments.Fig6SpeedMismatch(o, 10, 3) }},
		{Name: "6s", Run: func(o experiments.Options) { experiments.Fig6Scale(o, mode, *flows) }},
		{Name: "7", Run: func(o experiments.Options) { experiments.Fig7Weather(o, 365) }},
		{Name: "8", Run: func(o experiments.Options) { experiments.Fig8Europe(o) }},
		{Name: "9", Run: func(o experiments.Options) { experiments.Fig9TrafficModels(o, aggregatesFor(o)) }},
		{Name: "10", Run: func(o experiments.Options) {
			experiments.Fig10TowerConstraints(o, [][2]float64{
				{100, 0.85}, {80, 1.0}, {100, 0.65}, {70, 1.0}, {100, 0.45},
				{70, 0.45}, {60, 1.0}, {60, 0.65}, {60, 0.45},
			})
		}},
		{Name: "11", Run: func(o experiments.Options) { experiments.Fig11MixDeviation(o, loads) }},
		{Name: "12", Run: func(o experiments.Options) {
			experiments.Fig12Gaming(o, []float64{0, 25, 50, 75, 100, 150, 200, 250, 300})
		}},
		{Name: "13", Run: func(o experiments.Options) { experiments.Fig13WebBrowsing(o, 80) }},
		{Name: "econ", Run: func(o experiments.Options) { experiments.CostBenefit(o, 0.81) }},
		{Name: "ext", Run: func(o experiments.Options) { experiments.Extensions(o) }},
		{Name: "te", Run: func(o experiments.Options) { experiments.FigTE(o, *flows) }},
		{Name: "avail", Run: func(o experiments.Options) { experiments.FigAvail(o, *flows) }},
		{Name: "users", Run: func(o experiments.Options) { experiments.FigUsers(o, *flows) }},
	}
	// The -fig help string is derived from the spec table itself, so a new
	// figure can never drift out of the documented list.
	figs := flag.String("fig", "all",
		fmt.Sprintf("comma-separated figure list (%s) or 'all'", figNames(all)))
	flag.Parse()

	var err error
	mode, err = netsim.ParseMode(*modeStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opt := experiments.Options{Seed: *seed, Out: os.Stdout, Parallelism: *par}
	if opt.Scale, err = cisp.ParseScale(*scale); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	specs, err := selectFigs(all, *figs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}

	// Observability: one process-wide sink feeds the live endpoint, the
	// trace file, and the progress lines. Metric values and span timings
	// use the wall clock; the trace file's layout is derived purely from
	// the span tree, so same-seed runs write byte-identical traces.
	var sink *obs.Sink
	if *obsAddr != "" || *traceFile != "" || *progress {
		tr := obs.NewTracer(*seed, obs.WallClock)
		if *progress {
			tr.OnEvent = func(ev obs.SpanEvent) {
				if !ev.End {
					return
				}
				rate := ""
				if ev.Items > 0 && ev.Elapsed > 0 {
					rate = fmt.Sprintf(" %d items (%.0f/s)", ev.Items, float64(ev.Items)/ev.Elapsed.Seconds())
				}
				fmt.Fprintf(os.Stderr, "[obs] %-40s %8.3fs%s\n", ev.Path, ev.Elapsed.Seconds(), rate)
			}
		}
		sink = &obs.Sink{Reg: obs.NewRegistry(), Tr: tr, Clock: obs.WallClock}
		obs.SetActive(sink)
	}
	var obsSrv *obs.Server
	if *obsAddr != "" {
		srv, err := obs.Serve(*obsAddr, sink)
		if err != nil {
			fmt.Fprintln(os.Stderr, "obs:", err)
			os.Exit(2)
		}
		obsSrv = srv
		fmt.Fprintf(os.Stderr, "[obs] serving /metrics /trace /healthz /debug/pprof on %s\n", srv.Addr())
	}
	// finishObs flushes the trace file and holds the endpoint open for a
	// final scrape before the process exits.
	finishObs := func() {
		if *traceFile != "" && sink != nil {
			f, err := os.Create(*traceFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "obs:", err)
				os.Exit(1)
			}
			if err := obs.WriteTrace(f, sink.Tr); err != nil {
				fmt.Fprintln(os.Stderr, "obs:", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "obs:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "[obs] trace written to %s\n", *traceFile)
		}
		if obsSrv != nil {
			if *obsHold > 0 {
				fmt.Fprintf(os.Stderr, "[obs] holding endpoint for %ds\n", *obsHold)
				time.Sleep(time.Duration(*obsHold) * time.Second)
			}
			obsSrv.Close()
		}
	}

	figPar := *par
	if figPar <= 0 {
		figPar = runtime.GOMAXPROCS(0)
	}
	fig2 := slices.ContainsFunc(specs, func(s experiments.Spec) bool { return s.Name == "2" })
	if fig2 && len(specs) > 1 && figPar > 1 {
		fmt.Fprintln(os.Stderr,
			"note: concurrent figures contend for CPU and inflate Fig 2's measured design runtimes; use -parallel 1 for timing fidelity")
	}
	experiments.RunAll(opt, specs)
	finishObs()
}

// figNames lists the spec table's figure names, comma-separated.
func figNames(all []experiments.Spec) string {
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return strings.Join(names, ",")
}

// selectFigs returns the specs a -fig value names, in table order: every
// spec for "all", which derives from the table itself so a new figure is
// never skipped by a stale name list. A name the table lacks is an error
// that lists the valid ones.
func selectFigs(all []experiments.Spec, list string) ([]experiments.Spec, error) {
	if list == "all" {
		return all, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if !slices.ContainsFunc(all, func(s experiments.Spec) bool { return s.Name == name }) {
			return nil, fmt.Errorf("unknown figure %q (want all or a comma-separated list of %s)", name, figNames(all))
		}
		want[name] = true
	}
	var specs []experiments.Spec
	for _, s := range all {
		if want[s.Name] {
			specs = append(specs, s)
		}
	}
	return specs, nil
}
