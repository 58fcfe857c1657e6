package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// tinySizes shrinks every workload to a few seconds: plan at 8 cities, a
// 50-event churn pass, one users scenario at 500 flows and crowd at 2 000
// flows, all on an 8-city backbone.
var tinySizes = sizes{
	setups:     1,
	planCities: 8, planDays: 5,
	backboneCities: 8, churnEvents: 50,
	usersSpecs: 1, usersFlows: 500, usersPacketFlows: 40,
	crowdFlows: 2000,
}

// smoke runs one workload at tiny sizes (the minimum number of passes)
// and returns its report and printed output.
func smoke(t *testing.T, workload string, traced bool) (*report, string) {
	t.Helper()
	rep, _, err := run(config{workload: workload, seed: 3, seconds: 0, traced: traced, sizes: tinySizes})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var out bytes.Buffer
	if err := rep.write(&out); err != nil {
		t.Fatal(err)
	}
	if len(rep.problems) > 0 || rep.failed != 0 || rep.attempted < 1 {
		t.Fatalf("%s traced=%v: problems %v, %d of %d operations failed\n%s",
			workload, traced, rep.problems, rep.failed, rep.attempted, out.String())
	}
	return rep, out.String()
}

// checkPrinted asserts that every metric of the table is printed as
// "name value unit" and appears, with its unit, in the JSON last line.
func checkPrinted(t *testing.T, workload, out string, table []metric, nonzero bool) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var last struct {
		Correct   *bool                `json:"correct"`
		Attempted *int                 `json:"attempted"`
		Failed    *int                 `json:"failed"`
		Metrics   map[string]jsonValue `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil || last.Correct == nil || last.Attempted == nil || last.Failed == nil {
		t.Fatalf("%s: last line is not the JSON result (%v): %s", workload, err, lines[len(lines)-1])
	}
	if len(last.Metrics) != len(table) {
		t.Errorf("%s: JSON carries %d metrics, want %d", workload, len(last.Metrics), len(table))
	}
	for _, m := range table {
		line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.name) + ` \S+ ` + regexp.QuoteMeta(m.unit) + `$`)
		if !line.MatchString(out) {
			t.Errorf("%s: no %q line with unit %s", workload, m.name, m.unit)
		}
		v, ok := last.Metrics[m.name]
		if !ok || v.Unit != m.unit {
			t.Errorf("%s: JSON metric %s = %+v, want unit %s", workload, m.name, v, m.unit)
		}
		if nonzero && !(v.Value > 0) {
			t.Errorf("%s: %s = %v, want > 0", workload, m.name, v.Value)
		}
	}
}

// TestWorkloadsSmoke runs every workload at tiny sizes: untraced, then
// traced twice at the same seed. Each run must pass its checks and print
// every metric with its unit; outputs must match across all three runs and
// deterministic counts across the two traced ones.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, out := smoke(t, w.name, false)
			checkPrinted(t, w.name, out, endToEnd, true)
			if len(plain.outputs) == 0 {
				t.Errorf("%s: no outputs were checked", w.name)
			}
			for _, m := range workloadMetrics {
				line := regexp.MustCompile(`(?m)^# workload-metric ` + regexp.QuoteMeta(m.name) + ` \S+ ` + regexp.QuoteMeta(m.unit) + ` n=[1-9]\d* beyond=\d+$`)
				if got, want := line.MatchString(out), slices.Contains(m.on, w.name); got != want {
					t.Errorf("%s: workload metric %s printed %v, want %v", w.name, m.name, got, want)
				}
			}

			traced, out := smoke(t, w.name, true)
			checkPrinted(t, w.name, out, perLayer, false)
			again, _ := smoke(t, w.name, true)
			if !sameOutputs(plain.outputs, traced.outputs) || !sameOutputs(traced.outputs, again.outputs) {
				t.Errorf("%s: outputs differ: untraced %v, traced %v and %v", w.name, plain.outputs, traced.outputs, again.outputs)
			}
			for _, m := range perLayer {
				if m.det && traced.values[m.name] != again.values[m.name] {
					t.Errorf("%s: deterministic %s read %v then %v", w.name, m.name, traced.values[m.name], again.values[m.name])
				}
			}
			if u := traced.values["trace.unattributed_frac"]; !(u >= 0 && u < 0.05) {
				t.Errorf("%s: %.1f%% of the traced pass is unattributed", w.name, 100*u)
			}
		})
	}
}

// TestAgree runs -agree over saved outputs: a set agrees with itself, and
// a changed deterministic count or output, an end-to-end metric moved
// past its bound, and a workload metric moved past its bound are reported.
func TestAgree(t *testing.T) {
	_, plain := smoke(t, "crowd", false)
	_, traced := smoke(t, "crowd", true)
	dir := t.TempDir()
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	set := write("a.txt", plain+traced)
	var rows bytes.Buffer
	if ok, err := agree(&rows, set, set); err != nil || !ok {
		t.Fatalf("a set disagrees with itself (%v):\n%s", err, rows.String())
	}
	for _, edit := range []struct{ from, to string }{
		{"\nnetsim.fluid_events ", "\nnetsim.fluid_events 1"},
		{"# output netsim.flows ", "# output netsim.flows 1"},
		{"\nwall_s ", "\nwall_s 9"},
	} {
		text := plain + traced
		if !strings.Contains(text, edit.from) {
			t.Fatalf("no %q in the output", edit.from)
		}
		changed := write("b.txt", strings.Replace(text, edit.from, edit.to, 1))
		rows.Reset()
		if ok, err := agree(&rows, set, changed); err != nil || ok {
			t.Errorf("changing %q went unnoticed (%v):\n%s", edit.from, err, rows.String())
		}
	}

	// A churn run printed with every figure 1 but the snapshot read p99.
	churnRun := func(readP99 float64) string {
		rep := &report{workload: "churn", seed: 3, attempted: 1, values: map[string]float64{}, own: map[string]sample{}}
		for _, m := range endToEnd {
			rep.values[m.name] = 1
		}
		for _, m := range workloadMetrics {
			rep.own[m.name] = sample{1, 1000, 10}
		}
		rep.own["churn.read_p99_ms"] = sample{readP99, 1000, 10}
		var out bytes.Buffer
		if err := rep.write(&out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	m, _ := metricByName("churn.read_p99_ms")
	for _, tc := range []struct {
		readP99 float64
		want    bool
	}{{1 + m.bound/2, true}, {1 + 2*m.bound, false}} {
		rows.Reset()
		ok, err := agree(&rows, write("a.txt", churnRun(1)), write("b.txt", churnRun(tc.readP99)))
		if err != nil || ok != tc.want {
			t.Errorf("read p99 1 vs %v: agree %v (%v), want %v:\n%s", tc.readP99, ok, err, tc.want, rows.String())
		}
	}
}

// metricByName looks a metric up in any table.
func metricByName(name string) (metric, bool) {
	for _, tab := range [][]metric{endToEnd, perLayer, workloadMetrics} {
		for _, m := range tab {
			if m.name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}

// benchmarkJSON is BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON holds BENCHMARK.json and the code to each other: the
// file names exactly the workloads and metrics the code produces, every
// name is well formed, and every layer metric maps to an end-to-end metric
// and workloads that exist.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want 6", len(keys))
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}

	if !slices.Equal(b.Paths, []string{"benchmark"}) || len(b.Command) < 2 || b.Command[1] != "benchmark/run.sh" {
		t.Errorf("command %q, paths %q", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}

	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !valid.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Errorf("file has %d workloads, code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d: file %q (%q), code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("file has %d end-to-end metrics, code %d", len(b.EndToEnd), len(endToEnd))
	}
	largest := 0.0
	for i, m := range b.EndToEnd {
		name(m.Name)
		largest = max(largest, m.Bound)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if i < len(endToEnd) {
			c := endToEnd[i]
			if m.Name != c.name || m.Unit != c.unit || m.Better != c.better || m.Bound != c.bound {
				t.Errorf("end-to-end %d: file %+v, code %+v", i, m, c)
			}
		}
	}
	if s, ok := metricByName("setup_s"); !ok || s.unit != "s" || s.better != "lower" || s.bound != largest {
		t.Errorf("setup_s must be in seconds, lower-better, with the largest bound: %+v", s)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("file has %d per-layer metrics, code %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		if i < len(perLayer) {
			c := perLayer[i]
			if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
				t.Errorf("per-layer %d: file %+v, code %+v", i, m, c)
			}
		}
	}
	for _, m := range slices.Concat(endToEnd, perLayer, workloadMetrics) {
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better %q", m.name, m.better)
		}
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(m.unit) {
			t.Errorf("%s: unit %q is malformed", m.name, m.unit)
		}
	}
	for _, m := range perLayer {
		if !slices.ContainsFunc(endToEnd, func(e metric) bool { return e.name == m.moves }) {
			t.Errorf("%s moves %q, which is not an end-to-end metric", m.name, m.moves)
		}
	}
	for _, m := range workloadMetrics {
		name(m.name) // not in the file, and named like no metric there
		if m.bound <= 0 {
			t.Errorf("%s: bound %v", m.name, m.bound)
		}
	}
	for _, m := range slices.Concat(perLayer, workloadMetrics) {
		if len(m.on) == 0 {
			t.Errorf("%s names no workload", m.name)
		}
		for _, w := range m.on {
			if _, err := findWorkload(w); err != nil {
				t.Errorf("%s: %v", m.name, err)
			}
		}
	}
}
