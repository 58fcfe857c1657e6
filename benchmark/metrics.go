package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
)

// metric is one figure the benchmark reports. endToEnd and perLayer are
// the tables BENCHMARK.json mirrors; the consistency test holds the two to
// each other.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"

	// bound (end-to-end only) is the share of the parent's median by which
	// the metric may worsen before a change counts as a regression.
	bound float64

	// Per-layer only: det marks a deterministic count that must repeat
	// exactly at one seed; moves names the end-to-end metric the figure
	// should move, on the workloads listed in on.
	det   bool
	moves string
	on    []string
}

var allWorkloads = []string{"plan", "churn", "users", "crowd"}

// endToEnd are the figures a user of the system waits on or pays for,
// measured with tracing off. Every workload reports every one of them.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "max_rss_mb", unit: "MB", better: "lower", bound: 0.20},
}

// perLayer are the traced run's figures. Shares are of the timed pass's
// wall time; counts are per pass. A layer a workload never calls reads 0.
var perLayer = []metric{
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", moves: "wall_s", on: allWorkloads},
	{name: "trace.unattributed_frac", unit: "ratio", better: "lower", moves: "wall_s", on: allWorkloads},

	{name: "process.cpu_s", unit: "s", better: "lower", moves: "wall_s", on: allWorkloads},
	{name: "go.alloc_mb", unit: "MB", better: "lower", moves: "max_rss_mb", on: allWorkloads},
	{name: "go.allocs", unit: "count", better: "lower", moves: "wall_s", on: allWorkloads},
	{name: "go.gc_cycles", unit: "count", better: "lower", moves: "wall_s", on: allWorkloads},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower", moves: "wall_s", on: allWorkloads},

	{name: "design.self_frac", unit: "ratio", better: "lower", moves: "wall_s", on: []string{"plan"}},
	{name: "design.gain_evals", unit: "count", better: "lower", det: true, moves: "wall_s", on: []string{"plan"}},
	{name: "design.step2_iterations", unit: "count", better: "lower", det: true, moves: "wall_s", on: []string{"plan"}},
	{name: "design.apsp_updates", unit: "count", better: "lower", det: true, moves: "wall_s", on: []string{"plan"}},

	{name: "lp.solves", unit: "count", better: "lower", det: true, moves: "wall_s", on: []string{"churn", "users", "crowd"}},
	{name: "lp.pivots", unit: "count", better: "lower", det: true, moves: "wall_s", on: []string{"churn", "users", "crowd"}},
	{name: "lp.pivots_per_solve", unit: "count", better: "lower", det: true, moves: "wall_s", on: []string{"churn", "users", "crowd"}},

	{name: "capacity.self_frac", unit: "ratio", better: "lower", moves: "wall_s", on: []string{"plan"}},

	{name: "weather.self_frac", unit: "ratio", better: "lower", moves: "wall_s", on: []string{"plan"}},
	{name: "weather.days_per_s", unit: "1/s", better: "higher", moves: "wall_s", on: []string{"plan"}},

	{name: "te.self_frac", unit: "ratio", better: "lower", moves: "wall_s", on: []string{"crowd"}},
	{name: "te.busy_frac", unit: "ratio", better: "lower", moves: "wall_s", on: []string{"users"}},
	{name: "te.reopts", unit: "count", better: "lower", det: true, moves: "wall_s", on: []string{"churn", "users"}},
	{name: "te.reopt_commodities", unit: "count", better: "lower", det: true, moves: "wall_s", on: []string{"churn", "users"}},
	{name: "te.lp_solves", unit: "count", better: "lower", det: true, moves: "wall_s", on: []string{"churn", "users", "crowd"}},

	{name: "resilience.busy_frac", unit: "ratio", better: "lower", moves: "wall_s", on: []string{"users"}},
	{name: "resilience.frr_activations", unit: "count", better: "lower", det: true, moves: "wall_s", on: []string{"users"}},
	{name: "resilience.frr_lp_solves", unit: "count", better: "lower", det: true, moves: "wall_s", on: []string{"churn"}},

	{name: "ctlplane.self_frac", unit: "ratio", better: "lower", moves: "wall_s", on: []string{"churn"}},
	{name: "ctlplane.events", unit: "count", better: "lower", det: true, moves: "wall_s", on: []string{"churn"}},
	{name: "ctlplane.snapshots", unit: "count", better: "lower", det: true, moves: "wall_s", on: []string{"churn"}},
	{name: "ctlplane.snapshot_kb", unit: "KB", better: "lower", det: true, moves: "wall_s", on: []string{"churn"}},
	{name: "ctlplane.apply_tail_ratio", unit: "ratio", better: "lower", moves: "wall_s", on: []string{"churn"}},

	{name: "workload.compile_frac", unit: "ratio", better: "lower", moves: "wall_s", on: []string{"users"}},

	{name: "netsim.self_frac", unit: "ratio", better: "lower", moves: "wall_s", on: []string{"crowd"}},
	{name: "netsim.packet_busy_frac", unit: "ratio", better: "lower", moves: "wall_s", on: []string{"users"}},
	{name: "netsim.packet_events", unit: "count", better: "lower", det: true, moves: "wall_s", on: []string{"users"}},
	{name: "netsim.packet_events_per_s", unit: "1/s", better: "higher", moves: "wall_s", on: []string{"users"}},
	{name: "netsim.packet_drops", unit: "count", better: "lower", det: true, moves: "wall_s", on: []string{"users"}},
	{name: "netsim.fluid_busy_frac", unit: "ratio", better: "lower", moves: "wall_s", on: []string{"users"}},
	{name: "netsim.fluid_events", unit: "count", better: "lower", det: true, moves: "wall_s", on: []string{"users", "crowd"}},
	{name: "netsim.fluid_events_per_s", unit: "1/s", better: "higher", moves: "wall_s", on: []string{"users", "crowd"}},
	{name: "netsim.fluid_allocs_per_event", unit: "count", better: "lower", moves: "wall_s", on: []string{"crowd"}},
	{name: "netsim.heap_depth_max", unit: "count", better: "lower", det: true, moves: "max_rss_mb", on: []string{"users", "crowd"}},
}

// workloadMetrics are figures only one workload measures: the daemon's
// event→publish (Apply) latency and the latency of the snapshot reads
// beside it. They are not in BENCHMARK.json, whose metrics every workload
// reports; a run prints them as context lines with their sample counts,
// and -agree holds them to their bounds like the end-to-end metrics.
var workloadMetrics = []metric{
	{name: "churn.apply_p50_ms", unit: "ms", better: "lower", bound: 0.25, on: []string{"churn"}},
	{name: "churn.apply_p99_ms", unit: "ms", better: "lower", bound: 0.25, on: []string{"churn"}},
	{name: "churn.read_p50_ms", unit: "ms", better: "lower", bound: 0.25, on: []string{"churn"}},
	{name: "churn.read_p99_ms", unit: "ms", better: "lower", bound: 0.25, on: []string{"churn"}},
}

// sample is a workload metric and the samples it was taken over.
type sample struct {
	value  float64
	n      int // samples
	beyond int // samples strictly above a percentile
}

// output is one deterministic result of the system the benchmark checked,
// such as a design's mean stretch. Outputs are not metrics: they must read
// the same on every pass and every run at one seed.
type output struct {
	name  string
	value float64
}

// report is everything one run prints.
type report struct {
	workload string
	seed     int64
	traced   bool

	values    map[string]float64 // metric figures by name
	own       map[string]sample  // workload metrics by name
	outputs   []output
	details   []string // human-readable context lines
	problems  []string // failed correctness checks
	attempted int
	failed    int
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// percentile records the q-quantile of xs as the workload metric name.
func (r *report) percentile(name string, xs []float64, q float64) {
	v, beyond := percentile(xs, q)
	r.own[name] = sample{v, len(xs), beyond}
}

// table returns the metrics this run reports: the end-to-end table when
// untraced, the per-layer table when traced.
func (r *report) table() []metric {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// jsonValue is one metric of the result line.
type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the run: a header naming it, context and output lines, one
// "name value unit" line per metric, and as the last line the JSON result.
func (r *report) write(w io.Writer) error {
	trace := 0
	if r.traced {
		trace = 1
	}
	fmt.Fprintf(w, "# workload=%s seed=%d trace=%d\n", r.workload, r.seed, trace)
	for _, d := range r.details {
		fmt.Fprintf(w, "# %s\n", d)
	}
	for _, o := range r.outputs {
		fmt.Fprintf(w, "# output %s %s\n", o.name, formatValue(o.value))
	}
	for _, m := range workloadMetrics {
		if !slices.Contains(m.on, r.workload) {
			continue
		}
		s, ok := r.own[m.name]
		if !ok || s.n == 0 {
			r.problem("workload metric %s was not measured", m.name)
			continue
		}
		fmt.Fprintf(w, "# workload-metric %s %s %s n=%d beyond=%d\n", m.name, formatValue(s.value), m.unit, s.n, s.beyond)
	}
	metrics := map[string]jsonValue{}
	for _, m := range r.table() {
		v, ok := r.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("metric %s was not measured", m.name)
			v = 0
		}
		fmt.Fprintf(w, "%s %s %s\n", m.name, formatValue(v), m.unit)
		metrics[m.name] = jsonValue{v, m.unit}
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# FAILED CHECK: %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]jsonValue `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// median returns the median of xs (0 for none). xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule, and how many samples lie strictly above it. xs is reordered.
func percentile(xs []float64, q float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i], len(xs) - 1 - i
}
