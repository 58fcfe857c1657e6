package capacity

import (
	"sync"
	"testing"

	"cisp/internal/cities"
	"cisp/internal/design"
	"cisp/internal/fiber"
	"cisp/internal/linkbuild"
	"cisp/internal/los"
	"cisp/internal/terrain"
	"cisp/internal/towers"
	"cisp/internal/traffic"
	"cisp/internal/units"
)

var scenarioOnce struct {
	sync.Once
	cs    []cities.City
	links *linkbuild.Links
	top   *design.Topology
}

// scenario builds a small flat-terrain network where microwave links are
// plentiful, designs a topology, and caches everything.
func scenario(t testing.TB) ([]cities.City, *linkbuild.Links, *design.Topology) {
	t.Helper()
	scenarioOnce.Do(func() {
		all := cities.USCenters()
		names := []string{"Chicago, IL", "Indianapolis, IN", "St. Louis, MO", "Columbus, OH", "Detroit, MI"}
		var cs []cities.City
		for _, name := range names {
			c, ok := cities.ByName(all, name)
			if !ok {
				panic("missing city " + name)
			}
			cs = append(cs, c)
		}
		reg := towers.Generate(towers.GenConfig{Seed: 3, RuralPerCell: 3, CityTowerScale: 15}, cs)
		ev := los.NewEvaluator(terrain.Flat(), los.DefaultParams())
		links := linkbuild.Build(cs, reg, ev)
		fn := fiber.Synthesize(fiber.Config{Seed: 5}, cs)

		n := len(cs)
		p := &design.Problem{
			N: n, Budget: 200,
			Traffic:  traffic.PopulationProduct(cs),
			Geodesic: matrix(n), MW: matrix(n), MWCost: matrix(n), FiberLat: matrix(n),
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				p.Geodesic[i][j] = float64(cs[i].Loc.DistanceTo(cs[j].Loc))
				p.MW[i][j] = float64(links.MWDist(i, j))
				p.MWCost[i][j] = float64(links.TowerCount(i, j))
				p.FiberLat[i][j] = float64(fn.LatencyDist(i, j))
			}
		}
		top := design.Greedy(p, design.GreedyOptions{})
		scenarioOnce.cs, scenarioOnce.links, scenarioOnce.top = cs, links, top
	})
	return scenarioOnce.cs, scenarioOnce.links, scenarioOnce.top
}

func matrix(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	return m
}

func TestProvisionBasics(t *testing.T) {
	cs, links, top := scenario(t)
	if len(top.Built) == 0 {
		t.Fatal("design built no microwave links")
	}
	demand := traffic.ScaleToAggregate(traffic.PopulationProduct(cs), units.Gbps(10))
	plan := Provision(top, links, demand, Options{})

	if len(plan.LinkLoads) == 0 {
		t.Fatal("no load attributed to any microwave link")
	}
	total := demand.Total()
	for key, load := range plan.LinkLoads {
		if load <= 0 || load.Gbps() > total+1e-9 {
			t.Fatalf("link %v load %v out of range (total %v)", key, load, total)
		}
	}
	if plan.FiberFallback < 0 || plan.FiberFallback.Gbps() > total {
		t.Fatalf("fiber fallback %v out of range", plan.FiberFallback)
	}
}

func TestSeriesRule(t *testing.T) {
	opt := Options{SeriesCap: units.Gbps(1)}
	cases := []struct {
		load float64
		want int
	}{
		{0.2, 1}, {1.0, 1}, {1.01, 2}, {3.9, 2}, {4.01, 3}, {8.9, 3}, {9.5, 4},
	}
	for _, c := range cases {
		if got := seriesFor(units.Gbps(c.load), opt); got != c.want {
			t.Errorf("seriesFor(%v) = %d, want %d (k² rule: 1→1, 1-4→2, 4-9→3 Gbps)", c.load, got, c.want)
		}
	}
}

func TestSeriesRuleNoK2(t *testing.T) {
	opt := Options{SeriesCap: units.Gbps(1), NoK2: true}
	if got := seriesFor(units.Gbps(3.9), opt); got != 4 {
		t.Errorf("without the k² trick 3.9 Gbps needs 4 series, got %d", got)
	}
	// k² always needs no more series than linear.
	for _, load := range []float64{0.5, 1.5, 3, 7, 20, 100} {
		k2 := seriesFor(units.Gbps(load), Options{SeriesCap: units.Gbps(1)})
		lin := seriesFor(units.Gbps(load), opt)
		if k2 > lin {
			t.Errorf("k² used more series (%d) than linear (%d) at %v Gbps", k2, lin, load)
		}
	}
}

func TestHistogramAccounting(t *testing.T) {
	cs, links, top := scenario(t)
	demand := traffic.ScaleToAggregate(traffic.PopulationProduct(cs), units.Gbps(50))
	plan := Provision(top, links, demand, Options{})

	totalHops := 0
	for _, l := range top.Built {
		totalHops += len(links.Hops(l.I, l.J))
	}
	histSum := 0
	for _, c := range plan.HopHistogram {
		histSum += c
	}
	if histSum != totalHops {
		t.Fatalf("histogram covers %d hops, topology has %d", histSum, totalHops)
	}
	// Installs: k per hop, so at least one per hop.
	if plan.HopInstalls < totalHops {
		t.Fatalf("installs %d < hops %d", plan.HopInstalls, totalHops)
	}
	if plan.TowersUsed <= 0 {
		t.Fatal("no towers used")
	}
	if plan.NewTowers < 0 {
		t.Fatal("negative new towers")
	}
}

func TestHigherDemandNeedsMore(t *testing.T) {
	cs, links, top := scenario(t)
	lo := Provision(top, links, traffic.ScaleToAggregate(traffic.PopulationProduct(cs), units.Gbps(2)), Options{})
	hi := Provision(top, links, traffic.ScaleToAggregate(traffic.PopulationProduct(cs), units.Gbps(100)), Options{})
	if hi.HopInstalls < lo.HopInstalls {
		t.Fatalf("100 Gbps needs fewer installs (%d) than 2 Gbps (%d)?", hi.HopInstalls, lo.HopInstalls)
	}
	if hi.TowersUsed < lo.TowersUsed {
		t.Fatalf("100 Gbps uses fewer towers (%d) than 2 Gbps (%d)?", hi.TowersUsed, lo.TowersUsed)
	}
	maxSeriesLo, maxSeriesHi := 0, 0
	for _, k := range lo.Series {
		if k > maxSeriesLo {
			maxSeriesLo = k
		}
	}
	for _, k := range hi.Series {
		if k > maxSeriesHi {
			maxSeriesHi = k
		}
	}
	if maxSeriesHi <= maxSeriesLo {
		t.Fatalf("higher demand should need more parallel series (lo %d, hi %d)", maxSeriesLo, maxSeriesHi)
	}
}

func TestDeterminism(t *testing.T) {
	cs, links, top := scenario(t)
	demand := traffic.ScaleToAggregate(traffic.PopulationProduct(cs), units.Gbps(30))
	a := Provision(top, links, demand, Options{})
	b := Provision(top, links, demand, Options{})
	if a.NewTowers != b.NewTowers || a.TowersUsed != b.TowersUsed || a.HopInstalls != b.HopInstalls {
		t.Fatal("provisioning not deterministic")
	}
}

func TestLoadConservation(t *testing.T) {
	// Every unit of demand is either fiber-fallback or crosses ≥1 MW link.
	cs, links, top := scenario(t)
	demand := traffic.ScaleToAggregate(traffic.PopulationProduct(cs), units.Gbps(10))
	plan := Provision(top, links, demand, Options{})
	// Max link load cannot exceed total demand; sum of loads can (paths
	// traverse multiple links) but the fallback + per-pair attribution must
	// cover the total: check fallback < total given MW links exist.
	if len(top.Built) > 0 && plan.FiberFallback.Gbps() >= demand.Total() {
		t.Fatal("all demand fell back to fiber despite built MW links")
	}
}
