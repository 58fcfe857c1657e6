// Benchmarks regenerating every table and figure of the paper at reduced
// scale (one benchmark per experiment; run `cmd/cispbench -scale full` for
// the paper-scale tables), plus the ablation benchmarks called out in
// DESIGN.md §4.
package cisp_test

import (
	"fmt"
	"testing"

	"cisp"
	"cisp/internal/capacity"
	"cisp/internal/design"
	"cisp/internal/experiments"
	"cisp/internal/geo"
	"cisp/internal/netsim"
	"cisp/internal/parallel"
	"cisp/internal/traffic"
	"cisp/internal/units"
	"cisp/internal/weather"
)

func benchOpts(seed int64) experiments.Options {
	return experiments.Options{Scale: cisp.ScaleSmall, Seed: seed, MaxCities: 12}
}

func BenchmarkFig2aDesignRuntime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig2Scaling(benchOpts(1), []int{4, 6, 8}, 8, 0)
	}
}

func BenchmarkFig2bHeuristicVsILP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig2Scaling(benchOpts(1), []int{6}, 6, 0)
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
		b.ReportMetric(res.Rows[0].CISPStretch-res.Rows[0].ILPStretch, "stretch-gap")
	}
}

func BenchmarkFig3USNetwork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig3USNetwork(benchOpts(2))
		if res == nil {
			b.Fatal("fig3 failed")
		}
		b.ReportMetric(res.MeanStretch, "stretch")
		b.ReportMetric(res.CostPerGB, "$/GB")
	}
}

func BenchmarkFig4aStretchVsBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig4aStretchVsBudget(benchOpts(3), []float64{100, 400})
	}
}

func BenchmarkFig4bDisjointPaths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig4bDisjointPaths(benchOpts(4), 10)
	}
}

func BenchmarkFig4cCostCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig4cCostPerGB(benchOpts(5), []float64{10, 50})
	}
}

func BenchmarkFig5PerturbationSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5Perturbation(benchOpts(6), []float64{0.3}, []float64{70})
	}
}

func BenchmarkFig6SpeedMismatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6SpeedMismatch(benchOpts(7), 3, 1)
	}
}

func BenchmarkFig7WeatherYear(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig7Weather(benchOpts(8), 40)
		if res == nil {
			b.Fatal("fig7 failed")
		}
		b.ReportMetric(res.MedianP99, "p99-stretch")
	}
}

func BenchmarkFig8Europe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig8Europe(benchOpts(9))
		if res == nil {
			b.Fatal("fig8 failed")
		}
		b.ReportMetric(res.MeanStretch, "stretch")
	}
}

func BenchmarkFig9TrafficModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig9TrafficModels(benchOpts(10), []float64{20})
	}
}

func BenchmarkFig10TowerConstraints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig10TowerConstraints(benchOpts(11), [][2]float64{{60, 0.45}})
	}
}

func BenchmarkFig11MixDeviation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig11MixDeviation(benchOpts(12), []float64{70})
	}
}

func BenchmarkFig12Gaming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig12Gaming(benchOpts(13), []float64{0, 100, 200, 300})
	}
}

func BenchmarkFig13WebBrowsing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig13WebBrowsing(benchOpts(14), 40)
		if res == nil {
			b.Fatal("fig13 failed")
		}
		b.ReportMetric(res.PLTCutPct, "plt-cut-%")
	}
}

func BenchmarkCostBenefit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.CostBenefit(benchOpts(15), 0.81)
	}
}

// BenchmarkGreedyPoolWidth measures the Step-2 greedy design at 80 cities
// — past every fan-out grain, so candidate seeding, refreshAll, the
// snapshot APSP update and the fiber closure all hit the pool — under a
// one-worker pool versus the GOMAXPROCS default. Compare the two series
// with benchstat; on multi-core the wide pool should win while producing
// the bit-identical design (asserted via the stretch metric).
func BenchmarkGreedyPoolWidth(b *testing.B) {
	s := cisp.NewScenario(cisp.ScenarioConfig{
		Region: cisp.US, Scale: cisp.ScaleSmall, Seed: 30, MaxCities: 80,
	})
	p, err := s.Problem(s.PopulationTraffic(), 25*80)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 0} {
		name := "gomaxprocs"
		if w == 1 {
			name = "sequential"
		}
		b.Run(name, func(b *testing.B) {
			prev := parallel.SetWorkers(w)
			defer parallel.SetWorkers(prev)
			var stretch float64
			for i := 0; i < b.N; i++ {
				stretch = design.Greedy(p, design.GreedyOptions{}).MeanStretch()
			}
			b.ReportMetric(stretch, "stretch")
		})
	}
}

// BenchmarkWeatherYearPoolWidth measures the weather-analysis hot path —
// per-day field evaluation, graded link conditions and incremental APSP
// removal fanned out over the pool — under a one-worker pool versus the
// GOMAXPROCS default. The p99 metric must agree between the two series:
// AnalyzeYear is bit-identical at every worker count.
func BenchmarkWeatherYearPoolWidth(b *testing.B) {
	s := cisp.NewScenario(cisp.ScenarioConfig{
		Region: cisp.US, Scale: cisp.ScaleSmall, Seed: 31, MaxCities: 15,
	})
	tm := s.PopulationTraffic()
	top, err := s.DesignGreedy(tm, s.DefaultBudget())
	if err != nil {
		b.Fatal(err)
	}
	sites := make([]geo.Point, len(s.Cities))
	for i, c := range s.Cities {
		sites[i] = c.Loc
	}
	gen := weather.NewRegionGenerator(9, sites)
	for _, w := range []int{1, 0} {
		name := "gomaxprocs"
		if w == 1 {
			name = "sequential"
		}
		b.Run(name, func(b *testing.B) {
			prev := parallel.SetWorkers(w)
			defer parallel.SetWorkers(prev)
			var p99 float64
			for i := 0; i < b.N; i++ {
				an := weather.AnalyzeYear(top, s.Links, gen, weather.Config{Days: 120, Seed: 2})
				p99 = weather.Median(an.P99)
			}
			b.ReportMetric(p99, "p99-stretch")
		})
	}
}

// BenchmarkStep1World measures building the plan benchmark's world: 25 US
// cities, tower synthesis, a line-of-sight test per tower pair in range
// (most of the cost), the all-pairs tower paths and the fiber conduits.
// The feasible-hop count doubles as a check that no verdict moved.
func BenchmarkStep1World(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := cisp.NewScenario(cisp.ScenarioConfig{Region: cisp.US, Scale: cisp.ScaleSmall, Seed: 1, MaxCities: 25})
		b.ReportMetric(float64(s.Links.FeasibleHops()), "hops")
	}
}

// BenchmarkRunAllFigures measures the concurrent experiment runner on a
// bundle of independent figure reproductions, sequential vs pooled.
func BenchmarkRunAllFigures(b *testing.B) {
	specs := []experiments.Spec{
		{Name: "4c", Run: func(o experiments.Options) { experiments.Fig4cCostPerGB(o, []float64{10, 50}) }},
		{Name: "12", Run: func(o experiments.Options) { experiments.Fig12Gaming(o, []float64{0, 150}) }},
		{Name: "econ", Run: func(o experiments.Options) { experiments.CostBenefit(o, 0.81) }},
	}
	for _, par := range []int{1, 0} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := benchOpts(16)
				opt.Parallelism = par
				experiments.RunAll(opt, specs)
			}
		})
	}
}

// --- Packet vs fluid engine (DESIGN.md §6) ---

// scaleBench caches a designed ~100-site backbone (94 cities + 6 DC sites,
// greedy design, provisioned capacities, fiber substrate with midpoints
// for conduits parallel to microwave links) for the engine benchmarks: the
// design is expensive, the replay is what's measured. The construction is
// experiments.DesignedTETopology, and the commodities come from
// experiments.DemandCommodities — exactly what the Fig6Scale experiment
// replays.
var scaleBench *experiments.TETopology

func scaleBenchSetup(b *testing.B) {
	b.Helper()
	if scaleBench != nil {
		return
	}
	tt, err := experiments.DesignedTETopology(experiments.Options{Scale: cisp.ScaleSmall, Seed: 40, MaxCities: 94})
	if err != nil {
		b.Fatal(err)
	}
	scaleBench = tt
}

func scaleScenario(totalFlows int, horizon float64) *netsim.Scenario {
	return &netsim.Scenario{
		Nodes: scaleBench.Nodes, Links: scaleBench.Links(),
		Comms:  experiments.DemandCommodities(scaleBench.DesignTM, totalFlows, 250<<10, horizon),
		Scheme: netsim.ShortestPath, FlowBytes: 250 << 10, Horizon: horizon,
	}
}

// BenchmarkPacketMode measures the refactored discrete-event engine on the
// designed backbone at its practical flow scale.
func BenchmarkPacketMode(b *testing.B) {
	scaleBenchSetup(b)
	sc := scaleScenario(800, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sc.Run(netsim.PacketMode)
		if res.Completed == 0 {
			b.Fatal("packet mode completed nothing")
		}
		b.ReportMetric(float64(res.Completed), "flows-done")
	}
}

// BenchmarkFluidMode measures the flow-level engine replaying the same
// traffic mix with 10⁵-10⁶ concurrent flows over the same designed
// topology — the scale the packet engine cannot reach.
func BenchmarkFluidMode(b *testing.B) {
	scaleBenchSetup(b)
	for _, flows := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			sc := scaleScenario(flows, 300)
			for i := 0; i < b.N; i++ {
				res := sc.Run(netsim.FluidMode)
				if res.Completed == 0 {
					b.Fatal("fluid mode completed nothing")
				}
				b.ReportMetric(float64(res.Completed), "flows-done")
			}
		})
	}
}

// --- Ablations (DESIGN.md §4) ---

// benchScenario caches a scenario + problem for the ablation benchmarks.
var ablation struct {
	s  *cisp.Scenario
	p  *cisp.Problem
	tm cisp.TrafficMatrix
}

func ablationSetup(b *testing.B) {
	b.Helper()
	if ablation.s == nil {
		ablation.s = cisp.NewScenario(cisp.ScenarioConfig{
			Region: cisp.US, Scale: cisp.ScaleSmall, Seed: 20, MaxCities: 10,
		})
		ablation.tm = ablation.s.PopulationTraffic()
		p, err := ablation.s.Problem(ablation.tm, 250)
		if err != nil {
			b.Fatal(err)
		}
		ablation.p = p
	}
}

// BenchmarkAblationCandidatePruning compares the paper's method (greedy
// candidate pruning, then exact selection over candidates only) against
// exact selection over every useful link.
func BenchmarkAblationCandidatePruning(b *testing.B) {
	ablationSetup(b)
	b.Run("greedy-candidates", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			design.GreedyILP(ablation.p, 100_000)
		}
	})
	b.Run("all-links-exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			design.Exact(ablation.p, design.ExactOptions{MaxNodes: 500_000})
		}
	})
}

// BenchmarkAblationFlowPruning measures the paper's structural variable
// elimination in the Eq. 1 flow ILP.
func BenchmarkAblationFlowPruning(b *testing.B) {
	ablationSetup(b)
	small := shrink(ablation.p, 5)
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := design.FlowILP(small, design.FlowILPOptions{Prune: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unpruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := design.FlowILP(small, design.FlowILPOptions{Prune: false}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationK2 measures the k² parallel-series trick's tower savings
// against linear provisioning.
func BenchmarkAblationK2(b *testing.B) {
	ablationSetup(b)
	top := design.Greedy(ablation.p, design.GreedyOptions{})
	demand := traffic.ScaleToAggregate(ablation.tm, units.Gbps(50))
	b.Run("k2", func(b *testing.B) {
		var last *capacity.Plan
		for i := 0; i < b.N; i++ {
			last = capacity.Provision(top, ablation.s.Links, demand, capacity.Options{})
		}
		b.ReportMetric(float64(last.HopInstalls), "installs")
	})
	b.Run("linear", func(b *testing.B) {
		var last *capacity.Plan
		for i := 0; i < b.N; i++ {
			last = capacity.Provision(top, ablation.s.Links, demand, capacity.Options{NoK2: true})
		}
		b.ReportMetric(float64(last.HopInstalls), "installs")
	})
}

func shrink(p *cisp.Problem, n int) *cisp.Problem {
	q := &cisp.Problem{N: n, Budget: p.Budget}
	cut := func(m [][]float64) [][]float64 {
		out := make([][]float64, n)
		for i := 0; i < n; i++ {
			out[i] = m[i][:n:n]
		}
		return out
	}
	q.Traffic = cut(p.Traffic)
	q.Geodesic = cut(p.Geodesic)
	q.MW = cut(p.MW)
	q.MWCost = cut(p.MWCost)
	q.FiberLat = cut(p.FiberLat)
	return q
}
