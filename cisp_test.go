package cisp

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
	"testing"

	"cisp/internal/cities"
	"cisp/internal/los"
)

var usOnce struct {
	sync.Once
	s *Scenario
}

func usScenario(t testing.TB) *Scenario {
	t.Helper()
	usOnce.Do(func() {
		usOnce.s = NewScenario(ScenarioConfig{Region: US, Scale: ScaleSmall, Seed: 7, MaxCities: 15})
	})
	return usOnce.s
}

func TestScenarioConstruction(t *testing.T) {
	s := usScenario(t)
	if len(s.Cities) != 15 {
		t.Fatalf("city count = %d, want 15", len(s.Cities))
	}
	if s.Registry.Len() == 0 {
		t.Fatal("no towers generated")
	}
	if s.Links.FeasibleHops() == 0 {
		t.Fatal("no feasible hops")
	}
}

func TestProblemAssembly(t *testing.T) {
	s := usScenario(t)
	p, err := s.Problem(s.PopulationTraffic(), s.DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Budget != 25*15 {
		t.Fatalf("default budget = %v, want 375", p.Budget)
	}
}

func TestProblemRejectsWrongMatrix(t *testing.T) {
	s := usScenario(t)
	bad := make(TrafficMatrix, 3)
	for i := range bad {
		bad[i] = make([]float64, 3)
	}
	if _, err := s.Problem(bad, 100); err == nil {
		t.Fatal("mismatched matrix accepted")
	}
}

func TestDesignEndToEnd(t *testing.T) {
	s := usScenario(t)
	tm := s.PopulationTraffic()
	top, err := s.DesignGreedy(tm, s.DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Built) == 0 {
		t.Fatal("design built nothing")
	}
	stretch := top.MeanStretch()
	fiberStretch := top.MeanFiberStretch()
	if stretch >= fiberStretch {
		t.Fatalf("design stretch %v no better than fiber %v", stretch, fiberStretch)
	}
	// The paper reaches ~1.05–1.2 even at reduced density; accept < 1.5.
	if stretch > 1.5 {
		t.Errorf("design stretch %v unexpectedly high", stretch)
	}
	t.Logf("15-city small-scale design: stretch %.3f (fiber %.3f), %d links, %v towers",
		stretch, fiberStretch, len(top.Built), top.CostUsed())
}

func TestDesignCISPNoWorseThanGreedy(t *testing.T) {
	s := usScenario(t)
	tm := s.PopulationTraffic()
	g, err := s.DesignGreedy(tm, 200)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.DesignCISP(tm, 200)
	if err != nil {
		t.Fatal(err)
	}
	if c.MeanStretch() > g.MeanStretch()+1e-9 {
		t.Fatalf("cISP design (%v) worse than greedy (%v)", c.MeanStretch(), g.MeanStretch())
	}
}

func TestProvisionAndCost(t *testing.T) {
	s := usScenario(t)
	tm := s.PopulationTraffic()
	top, err := s.DesignGreedy(tm, s.DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	const aggregate = 20.0 // Gbps
	demand := scaleTo(tm, aggregate)
	plan := s.Provision(top, demand)
	if plan.TowersUsed == 0 {
		t.Fatal("plan uses no towers")
	}
	perGB := s.CostPerGB(plan, aggregate)
	if perGB <= 0 {
		t.Fatal("non-positive cost per GB")
	}
	// Order of magnitude: the paper's 100 Gbps full-scale network costs
	// $0.81/GB; reduced scale at lower aggregate may sit higher, but must
	// stay within an order of magnitude.
	if perGB > 10 {
		t.Errorf("cost per GB $%.2f out of plausible range", perGB)
	}
	t.Logf("provisioned %d installs, %d new towers, %d towers used, $%.2f/GB at %v Gbps",
		plan.HopInstalls, plan.NewTowers, plan.TowersUsed, perGB, aggregate)
}

func TestScenarioDeterminism(t *testing.T) {
	a := NewScenario(ScenarioConfig{Scale: ScaleSmall, Seed: 3, MaxCities: 8})
	b := NewScenario(ScenarioConfig{Scale: ScaleSmall, Seed: 3, MaxCities: 8})
	if a.Registry.Len() != b.Registry.Len() || a.Links.FeasibleHops() != b.Links.FeasibleHops() {
		t.Fatal("scenario construction not deterministic")
	}
	for i := range a.Cities {
		for j := range a.Cities {
			if a.Links.MWDist(i, j) != b.Links.MWDist(i, j) {
				t.Fatal("link distances differ across identical seeds")
			}
		}
	}
}

// TestStep1Pinned pins two Step-1 worlds: their feasible-hop counts, a
// hash of every city pair's microwave distance (bits) and tower cost, and
// a hash of the feasible-hop set itself (every tower-tower edge of the hop
// graph, in insertion order). Any change to the line-of-sight kernel, the
// terrain or the great-circle sampling that moves a single hop verdict
// moves these, even one that keeps the hop count and every shortest link.
func TestStep1Pinned(t *testing.T) {
	for _, tc := range []struct {
		s                 *Scenario
		hops, towers      int
		linkHash, hopHash uint64
	}{
		{usScenario(t), 21056, 2600, 0x6715ba2295426bb9, 0x999993f83d1c0bcf},
		{NewScenario(ScenarioConfig{Region: Europe, Scale: ScaleSmall, Seed: 11, MaxCities: 12}), 16136, 1494, 0xefae85a46a56f667, 0x8dccf480d986be95},
	} {
		s := tc.s
		h := fnv.New64a()
		for i := range s.Cities {
			for j := range s.Cities {
				fmt.Fprintf(h, "%x %d\n", math.Float64bits(float64(s.Links.MWDist(i, j))), s.Links.TowerCount(i, j))
			}
		}
		hops := fnv.New64a()
		g, n := s.Links.Graph(), len(s.Cities)
		for u := n; u < g.N(); u++ {
			for _, e := range g.Neighbors(u) {
				if e.To > u {
					fmt.Fprintf(hops, "%d %d %x\n", u, e.To, math.Float64bits(float64(e.Weight)))
				}
			}
		}
		if n, towers := s.Links.FeasibleHops(), s.Registry.Len(); n != tc.hops || towers != tc.towers || h.Sum64() != tc.linkHash || hops.Sum64() != tc.hopHash {
			t.Errorf("region %d: %d hops over %d towers, link hash %#x, hop-set hash %#x; want %d, %d, %#x, %#x",
				s.Config.Region, n, towers, h.Sum64(), hops.Sum64(), tc.hops, tc.towers, tc.linkHash, tc.hopHash)
		}
	}
}

func TestScenarioConfigCities(t *testing.T) {
	for _, cfg := range []ScenarioConfig{
		{Region: US, Scale: ScaleSmall, Seed: 7, MaxCities: 15},
		{Region: Europe, Scale: ScaleMedium},
		{Region: US, Scale: ScaleFull},
		{Sites: GoogleDCSites()},
	} {
		want := cfg.Sites
		if want == nil {
			want = cities.USCenters()
			if cfg.Region == Europe {
				want = cities.EuropeCenters()
			}
			want = want[:min(len(want), cfg.cityCount())]
		}
		if got := cfg.Cities(); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: %d sites, want %d", cfg, len(got), len(want))
		}
	}
	if s := usScenario(t); !reflect.DeepEqual(s.Cities, s.Config.Cities()) {
		t.Error("a scenario's cities differ from its config's")
	}
}

func TestLOSOverride(t *testing.T) {
	// A 60 km range must never find more feasible hops than 100 km.
	p60 := los.DefaultParams()
	p60.MaxRange = 60e3
	short := NewScenario(ScenarioConfig{Scale: ScaleSmall, Seed: 5, MaxCities: 8, LOS: p60})
	long := NewScenario(ScenarioConfig{Scale: ScaleSmall, Seed: 5, MaxCities: 8})
	if short.Links.FeasibleHops() > long.Links.FeasibleHops() {
		t.Fatalf("60 km range found more hops (%d) than 100 km (%d)",
			short.Links.FeasibleHops(), long.Links.FeasibleHops())
	}
}

func TestEuropeScenario(t *testing.T) {
	s := NewScenario(ScenarioConfig{Region: Europe, Scale: ScaleSmall, Seed: 11, MaxCities: 12})
	if len(s.Cities) != 12 {
		t.Fatalf("Europe cities = %d", len(s.Cities))
	}
	top, err := s.DesignGreedy(s.PopulationTraffic(), s.DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if top.MeanStretch() >= top.MeanFiberStretch() {
		t.Fatal("Europe design did not improve on fiber")
	}
}

func scaleTo(tm TrafficMatrix, aggregate float64) TrafficMatrix {
	total := tm.Total()
	out := tm.Clone()
	if total == 0 {
		return out
	}
	for i := range out {
		for j := range out[i] {
			out[i][j] *= aggregate / total
		}
	}
	return out
}

func TestScaleToHelper(t *testing.T) {
	s := usScenario(t)
	d := scaleTo(s.PopulationTraffic(), 42)
	if math.Abs(d.Total()-42) > 1e-9 {
		t.Fatalf("scaled total = %v", d.Total())
	}
}

func TestParseScale(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Scale
		ok   bool
	}{
		{"small", ScaleSmall, true},
		{"Medium", ScaleMedium, true},
		{"FULL", ScaleFull, true},
		{"fulll", 0, false},
		{"", 0, false},
	} {
		got, err := ParseScale(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
