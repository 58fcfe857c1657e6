// Command benchmark measures the cISP system end to end and layer by
// layer. It runs one workload per process:
//
//	bash benchmark/run.sh --workload churn --seed 1 --seconds 10 --trace 0
//
// Each run sets the workload up several times (setup_s is the median),
// then repeats identical passes of timed work for --seconds and reports
// medians. It checks every pass's outputs and prints every metric as
// "name value unit", then, as the last line, a JSON result. With
// --trace 0 the metrics are the end-to-end ones, measured with
// internal/obs off. With --trace 1 they are the per-layer ones: every
// other pass runs with an obs sink installed and the benchmark's own
// wall-clock spans around each call it makes into a layer, and
// --spans FILE writes those spans as a Chrome trace.
//
//	bash benchmark/run.sh -agree setA.txt setB.txt
//
// checks that two sets of saved run outputs agree. See benchmark/README.md
// for the workloads, the metrics and how to read a traced run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"cisp/internal/obs"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	sizes    sizes
}

func main() {
	name := flag.String("workload", "", "workload to run: plan, churn, users or crowd")
	seed := flag.Int64("seed", 1, "seed every input of the run is drawn from")
	seconds := flag.Float64("seconds", 10, "how long to repeat timed passes")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	spans := flag.String("spans", "", "with -trace 1, write the run's spans to this file as a Chrome trace")
	agreeMode := flag.Bool("agree", false, "compare two files of saved run outputs given as arguments")
	flag.Parse()

	if *agreeMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -agree takes two files of run outputs")
			os.Exit(2)
		}
		ok, err := agree(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "benchmark: -trace %d: want 0 or 1\n", *trace)
		os.Exit(2)
	}
	if _, err := findWorkload(*name); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(2)
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1, sizes: fullSizes}
	rep, tr, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	if *spans != "" && tr != nil {
		if err := writeSpans(*spans, tr); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}

func writeSpans(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (want plan, churn, users or crowd)", name)
}

// usage returns the process's CPU time (user plus system) and its peak
// resident set.
func usage() (cpu time.Duration, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// run executes one benchmark run and returns its report and, when traced,
// its spans. An error means the run could not start; failed checks are
// problems on the report.
func run(cfg config) (*report, *tracer, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, nil, err
	}
	rep := &report{workload: w.name, seed: cfg.seed, traced: cfg.traced, values: map[string]float64{}, own: map[string]sample{}}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
		for _, m := range perLayer {
			rep.values[m.name] = 0 // a layer the workload never calls reads 0
		}
	}

	var setups []float64
	var r runner
	for i := 0; i < cfg.sizes.setups; i++ {
		if r != nil {
			r.close(nil)
			r = nil
		}
		runtime.GC() // every set-up starts from the same heap
		root := tr.beginRoot("setup")
		t0 := time.Now()
		r, err = w.setup(cfg.sizes, cfg.seed, tr)
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(root)
		if err != nil {
			return nil, nil, fmt.Errorf("setting up %s: %w", w.name, err)
		}
	}
	rep.details = append(rep.details, fmt.Sprintf("set up %d times: %v s", len(setups), setups))
	rep.values["setup_s"] = median(setups)

	p := runPasses(cfg, r, tr, rep)
	r.close(rep)
	rep.attempted, rep.failed = r.ops()
	_, rss := usage()
	rep.values["max_rss_mb"] = rss

	if !cfg.traced {
		rep.values["wall_s"] = median(p.walls)
		return rep, nil, nil
	}
	for _, m := range perLayer {
		if v, ok := p.det[m.name]; ok {
			rep.values[m.name] = v
		} else if vs := p.layer[m.name]; len(vs) > 0 {
			rep.values[m.name] = median(vs)
		}
	}
	rep.values["trace.overhead_frac"] = median(p.tracedWalls)/median(p.walls) - 1
	return rep, tr, nil
}

// passes is what the timed loop measured.
type passes struct {
	walls       []float64          // untraced passes, s
	tracedWalls []float64          // traced passes, s
	det         map[string]float64 // deterministic per-layer figures
	layer       map[string][]float64
}

// runPasses repeats passes until cfg.seconds have gone by (and at least
// minimum passes have run), checking each pass's outputs after its clock
// stops. In a traced run every other pass is traced: it runs with a fresh
// obs sink installed and records spans, and the passes between give the
// untraced times that the tracing overhead and the Go runtime figures are
// taken from.
func runPasses(cfg config, r runner, tr *tracer, rep *report) passes {
	p := passes{det: map[string]float64{}, layer: map[string][]float64{}}
	minimum := 3
	if cfg.traced {
		minimum = 4
	}
	var first []output
	start := time.Now()
	for n := 0; n < minimum || time.Since(start).Seconds() < cfg.seconds; n++ {
		traced := cfg.traced && n%2 == 1
		var ptr *tracer
		var reg *obs.Registry
		if traced {
			ptr, reg = tr, obs.NewRegistry()
			obs.SetActive(&obs.Sink{Reg: reg, Tr: obs.NewTracer(cfg.seed, obs.WallClock), Clock: obs.WallClock})
		}
		runtime.GC() // every pass starts from the same heap
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0, _ := usage()
		root := ptr.beginRoot("pass")
		t0 := time.Now()
		err := r.pass(ptr)
		wall := time.Since(t0)
		ptr.end(root)
		cpu1, _ := usage()
		runtime.ReadMemStats(&ms1)
		obs.SetActive(nil)
		if err != nil {
			rep.problem("pass %d: %v", n, err)
			break
		}
		res, err := r.check()
		if err != nil {
			rep.problem("pass %d: %v", n, err)
			break
		}
		if first == nil {
			first = res.outputs
			rep.outputs = res.outputs
		} else if !sameOutputs(first, res.outputs) {
			rep.problem("pass %d: outputs %v differ from the first pass's %v", n, res.outputs, first)
			break
		}
		if !traced {
			p.walls = append(p.walls, wall.Seconds())
			if cfg.traced {
				p.layer["process.cpu_s"] = append(p.layer["process.cpu_s"], (cpu1 - cpu0).Seconds())
				p.layer["go.alloc_mb"] = append(p.layer["go.alloc_mb"], float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
				p.layer["go.allocs"] = append(p.layer["go.allocs"], float64(ms1.Mallocs-ms0.Mallocs))
				p.layer["go.gc_cycles"] = append(p.layer["go.gc_cycles"], float64(ms1.NumGC-ms0.NumGC))
				p.layer["go.gc_pause_ms"] = append(p.layer["go.gc_pause_ms"], float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
			}
			continue
		}
		p.tracedWalls = append(p.tracedWalls, wall.Seconds())
		figs := layerFigures(reg, tr, root)
		for _, m := range perLayer {
			v, ok := figs[m.name]
			if rv, rok := res.figures[m.name]; rok {
				v, ok = rv, true
			}
			if !ok {
				continue
			}
			if !m.det {
				p.layer[m.name] = append(p.layer[m.name], v)
				continue
			}
			if prev, seen := p.det[m.name]; seen && prev != v {
				rep.problem("pass %d: deterministic %s changed from %v to %v", n, m.name, prev, v)
			}
			p.det[m.name] = v
		}
		if v := p.det["resilience.frr_lp_solves"]; v != 0 {
			rep.problem("pass %d: %v LP solves on the fast-reroute path, want 0", n, v)
		}
	}
	rep.details = append(rep.details, fmt.Sprintf("%d untraced and %d traced passes in %.3f s; untraced pass wall %v s",
		len(p.walls), len(p.tracedWalls), time.Since(start).Seconds(), p.walls))
	return p
}

func sameOutputs(a, b []output) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// layerFigures derives one traced pass's per-layer figures from the
// benchmark's spans (self time of the calls it made) and from the system's
// own obs counters and stage timers. Stage timers inside
// workload.Pipeline time legs that run concurrently, so they give busy
// time, reported as *_busy_frac, not a share of wall time.
func layerFigures(reg *obs.Registry, tr *tracer, root int) map[string]float64 {
	wall, self := tr.selfTimes(root)
	share := func(spans ...string) float64 {
		var d time.Duration
		for _, s := range spans {
			d += self[s]
		}
		return d.Seconds() / wall.Seconds()
	}
	count := func(name string, kv ...string) float64 { return float64(reg.Counter(name, kv...).Value()) }
	gauge := func(name string, kv ...string) float64 { return reg.Gauge(name, kv...).Value() }
	busy := func(stages ...string) float64 {
		s := 0.0
		for _, st := range stages {
			s += reg.Histogram("cisp_workload_stage_seconds", "stage", st).Sum()
		}
		return s
	}
	ratio := func(n, d float64) float64 {
		if d <= 0 {
			return 0
		}
		return n / d
	}

	solves, pivots := count("cisp_lp_solves_total"), count("cisp_lp_pivots_total")
	packetEvents := count("cisp_netsim_events_total", "mode", "packet")
	fluidEvents := count("cisp_netsim_events_total", "mode", "fluid")
	packetBusy := busy("replay:cisp/packet", "replay:fiber/packet")
	fluidBusy := busy("replay:cisp/fluid", "replay:fiber/fluid")
	fluidSecs := fluidBusy
	if d := self["netsim.fluid"]; d > 0 { // crowd calls the fluid engine itself
		fluidSecs = d.Seconds()
	}
	events, snapshots := 0.0, 0.0
	for _, typ := range []string{"fade", "fail", "repair"} {
		events += count("cisp_ctlplane_events_total", "type", typ)
	}
	for _, kind := range []string{"initial", "frr", "reopt", "reload"} {
		snapshots += count("cisp_ctlplane_snapshots_total", "kind", kind)
	}
	activations := 0.0
	for _, mode := range []string{"none", "frr", "reopt"} {
		activations += count("cisp_resilience_frr_activations_total", "mode", mode)
	}
	return map[string]float64{
		"trace.unattributed_frac": share(""),

		"design.self_frac":        share("design.cisp"),
		"design.gain_evals":       count("cisp_design_gain_evals_total"),
		"design.step2_iterations": count("cisp_design_step2_iterations_total"),
		"design.apsp_updates":     count("cisp_design_apsp_updates_total"),

		"lp.solves":           solves,
		"lp.pivots":           pivots,
		"lp.pivots_per_solve": ratio(pivots, solves),

		"capacity.self_frac": share("capacity.provision", "capacity.price"),
		"weather.self_frac":  share("weather.year"),

		"te.self_frac":               share("te.solve"),
		"te.busy_frac":               busy("te-solve") / wall.Seconds(),
		"te.reopts":                  count("cisp_te_reopts_total"),
		"te.reopt_commodities":       count("cisp_te_reopt_commodities_total"),
		"te.lp_solves":               count("cisp_te_lp_solves_total"),
		"resilience.busy_frac":       busy("protect") / wall.Seconds(),
		"resilience.frr_lp_solves":   gauge("cisp_ctlplane_frr_lp_solves"),
		"resilience.frr_activations": activations,

		"ctlplane.self_frac": share("ctlplane.boot", "ctlplane.apply"),
		"ctlplane.events":    events,
		"ctlplane.snapshots": snapshots,

		"workload.compile_frac": share("workload.compile"),

		"netsim.self_frac":           share("netsim.fluid"),
		"netsim.packet_busy_frac":    packetBusy / wall.Seconds(),
		"netsim.packet_events":       packetEvents,
		"netsim.packet_events_per_s": ratio(packetEvents, packetBusy),
		"netsim.packet_drops":        count("cisp_netsim_drops_total", "mode", "packet"),
		"netsim.fluid_busy_frac":     fluidBusy / wall.Seconds(),
		"netsim.fluid_events":        fluidEvents,
		"netsim.fluid_events_per_s":  ratio(fluidEvents, fluidSecs),
		"netsim.heap_depth_max": max(gauge("cisp_netsim_heap_depth_max", "mode", "packet"),
			gauge("cisp_netsim_heap_depth_max", "mode", "fluid")),
	}
}
