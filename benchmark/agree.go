package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// savedRun is one run parsed back from its printed output.
type savedRun struct {
	workload string
	seed     int64
	traced   bool
	values   map[string]float64 // metrics
	own      map[string]float64 // workload metrics
	outputs  map[string]float64
	correct  bool
	failed   int
}

// parseRuns reads a file of concatenated run outputs, as made by
// appending each run's standard output to one file.
func parseRuns(path string) ([]savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []savedRun
	var cur *savedRun
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if strings.HasPrefix(text, "# workload=") {
			r := savedRun{values: map[string]float64{}, own: map[string]float64{}, outputs: map[string]float64{}}
			var trace int
			if _, err := fmt.Sscanf(text, "# workload=%s seed=%d trace=%d", &r.workload, &r.seed, &trace); err != nil {
				return nil, fmt.Errorf("%s:%d: bad run header: %v", path, line, err)
			}
			r.traced = trace == 1
			runs = append(runs, r)
			cur = &runs[len(runs)-1]
			continue
		}
		if cur == nil {
			continue
		}
		fields := strings.Fields(text)
		var into map[string]float64
		var name, value string
		switch {
		case strings.HasPrefix(text, "# output ") && len(fields) == 4:
			into, name, value = cur.outputs, fields[2], fields[3]
		case strings.HasPrefix(text, "# workload-metric ") && len(fields) >= 5:
			into, name, value = cur.own, fields[2], fields[3]
		case strings.HasPrefix(text, "{"):
			var res struct {
				Correct bool `json:"correct"`
				Failed  int  `json:"failed"`
			}
			if err := json.Unmarshal([]byte(text), &res); err != nil {
				return nil, fmt.Errorf("%s:%d: %v", path, line, err)
			}
			cur.correct, cur.failed = res.Correct, res.Failed
			cur = nil
			continue
		case !strings.HasPrefix(text, "#") && len(fields) == 3:
			into, name, value = cur.values, fields[0], fields[1]
		default:
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		into[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return runs, nil
}

// agree checks that two sets of runs of the same code agree, printing one
// row per check: every run passed its checks with no failed operation; for
// every workload, seed and end-to-end or workload metric the two sets'
// medians over their untraced runs differ by no more than the metric's
// bound; and every deterministic per-layer count and every output reads
// the same in every run at the same seed.
func agree(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := parseRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := parseRuns(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	row := func(pass bool, format string, args ...any) {
		verdict := "ok"
		if !pass {
			verdict, ok = "DISAGREE", false
		}
		fmt.Fprintf(w, "%-8s "+format+"\n", append([]any{verdict}, args...)...)
	}
	both := append(append([]savedRun(nil), a...), b...)
	for _, r := range both {
		if !r.correct || r.failed != 0 {
			row(false, "run %s seed %d trace %v: correct=%v failed=%d", r.workload, r.seed, r.traced, r.correct, r.failed)
		}
	}
	for _, wl := range workloads {
		for _, seed := range untracedSeeds(both, wl.name) {
			compare := func(m metric, own bool) {
				va, vb := untracedValues(a, wl.name, seed, m.name, own), untracedValues(b, wl.name, seed, m.name, own)
				ma, mb := median(va), median(vb)
				diff := math.Abs(mb-ma) / ma
				row(len(va) > 0 && len(vb) > 0 && diff <= m.bound,
					"%-6s seed %-3d %-18s median %12.6g (n=%d) vs %12.6g (n=%d): %6.2f%% apart, bound %.1f%%",
					wl.name, seed, m.name, ma, len(va), mb, len(vb), 100*diff, 100*m.bound)
			}
			for _, m := range endToEnd {
				compare(m, false)
			}
			for _, m := range workloadMetrics {
				if slices.Contains(m.on, wl.name) {
					compare(m, true)
				}
			}
		}
		for _, m := range perLayer {
			if m.det && slices.Contains(m.on, wl.name) {
				sameAtEachSeed(both, wl.name, m.name, true, row)
			}
		}
		for _, name := range outputNames(both, wl.name) {
			sameAtEachSeed(both, wl.name, name, false, row)
		}
	}
	return ok, nil
}

// untracedSeeds lists, sorted, the seeds of the workload's untraced runs.
func untracedSeeds(runs []savedRun, workload string) []int64 {
	var seeds []int64
	for _, r := range runs {
		if r.workload == workload && !r.traced && !slices.Contains(seeds, r.seed) {
			seeds = append(seeds, r.seed)
		}
	}
	slices.Sort(seeds)
	return seeds
}

// untracedValues collects a metric (a workload metric if own) from the
// untraced runs of one workload at one seed.
func untracedValues(runs []savedRun, workload string, seed int64, metric string, own bool) []float64 {
	var vs []float64
	for _, r := range runs {
		if r.workload != workload || r.seed != seed || r.traced {
			continue
		}
		from := r.values
		if own {
			from = r.own
		}
		if v, ok := from[metric]; ok {
			vs = append(vs, v)
		}
	}
	return vs
}

// outputNames lists, sorted, the outputs any run of the workload printed.
func outputNames(runs []savedRun, workload string) []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range runs {
		if r.workload != workload {
			continue
		}
		for name := range r.outputs {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	return names
}

// sameAtEachSeed checks that a figure — a per-layer metric of the traced
// runs, or an output of any run — reads the same in every run of the
// workload at the same seed.
func sameAtEachSeed(runs []savedRun, workload, name string, metric bool, row func(bool, string, ...any)) {
	first := map[int64]float64{}
	n, same := 0, true
	for _, r := range runs {
		if r.workload != workload || (metric && !r.traced) {
			continue
		}
		v, ok := r.outputs[name]
		if metric {
			v, ok = r.values[name]
		}
		if !ok {
			continue
		}
		n++
		if prev, seen := first[r.seed]; seen && prev != v {
			same = false
		}
		first[r.seed] = v
	}
	if n == 0 {
		return
	}
	kind := "output"
	if metric {
		kind = "count"
	}
	row(same, "%-6s %-6s %-32s identical at each seed over %d runs: %v", workload, kind, name, n, same)
}
