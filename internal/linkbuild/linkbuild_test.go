package linkbuild

import (
	"math"
	"sync"
	"testing"

	"cisp/internal/cities"
	"cisp/internal/los"
	"cisp/internal/terrain"
	"cisp/internal/towers"
	"cisp/internal/units"
)

var scenarioOnce struct {
	sync.Once
	cs []cities.City
	l  *Links
}

// smallScenario builds (once per test binary) a reduced-scale Midwest
// scenario that is quick enough for unit tests but still exercises real
// tower routing.
func smallScenario(t testing.TB) ([]cities.City, *Links) {
	t.Helper()
	scenarioOnce.Do(func() {
		all := cities.USCenters()
		names := []string{"Chicago, IL", "Indianapolis, IN", "St. Louis, MO", "Columbus, OH", "Detroit, MI", "Milwaukee, WI"}
		var cs []cities.City
		for _, name := range names {
			c, ok := cities.ByName(all, name)
			if !ok {
				t.Fatalf("city %s missing", name)
			}
			cs = append(cs, c)
		}
		reg := towers.Generate(towers.GenConfig{Seed: 21, RuralPerCell: 2.5, CityTowerScale: 15}, cs)
		ev := los.NewEvaluator(terrain.ContiguousUS(7), los.DefaultParams())
		scenarioOnce.cs = cs
		scenarioOnce.l = Build(cs, reg, ev)
	})
	return scenarioOnce.cs, scenarioOnce.l
}

func TestMidwestLinksExist(t *testing.T) {
	cs, l := smallScenario(t)
	if l.FeasibleHops() == 0 {
		t.Fatal("no feasible hops found")
	}
	connected := 0
	for i := 0; i < len(cs); i++ {
		for j := i + 1; j < len(cs); j++ {
			if !math.IsInf(float64(l.MWDist(i, j)), 1) {
				connected++
			}
		}
	}
	if connected == 0 {
		t.Fatal("no city pair has a microwave link")
	}
	t.Logf("feasible hops: %d, connected pairs: %d/%d", l.FeasibleHops(), connected, len(cs)*(len(cs)-1)/2)
}

func TestMWDistAtLeastGeodesic(t *testing.T) {
	cs, l := smallScenario(t)
	for i := 0; i < len(cs); i++ {
		for j := i + 1; j < len(cs); j++ {
			d := l.MWDist(i, j)
			if math.IsInf(float64(d), 1) {
				continue
			}
			geod := cs[i].Loc.DistanceTo(cs[j].Loc)
			if d < geod*0.999 {
				t.Fatalf("%s-%s MW link (%.0f m) shorter than geodesic (%.0f m)", cs[i].Name, cs[j].Name, d, geod)
			}
		}
	}
}

func TestMWLinksNearlyStraight(t *testing.T) {
	// On the plains, shortest tower paths should be close to great-circle:
	// the paper's links achieve ~1.05× or better per-link stretch in easy
	// terrain. Allow a generous bound at reduced tower density.
	cs, l := smallScenario(t)
	any := false
	for i := 0; i < len(cs); i++ {
		for j := i + 1; j < len(cs); j++ {
			d := l.MWDist(i, j)
			if math.IsInf(float64(d), 1) {
				continue
			}
			geod := cs[i].Loc.DistanceTo(cs[j].Loc)
			if geod < 150e3 {
				continue
			}
			any = true
			if s := float64(d / geod); s > 1.35 {
				t.Errorf("%s-%s MW stretch %.3f, want < 1.35 in flat terrain", cs[i].Name, cs[j].Name, s)
			}
		}
	}
	if !any {
		t.Skip("no long links at this scale")
	}
}

func TestSymmetry(t *testing.T) {
	cs, l := smallScenario(t)
	for i := range cs {
		for j := range cs {
			if l.MWDist(i, j) != l.MWDist(j, i) {
				t.Fatalf("asymmetric MW distance %d-%d", i, j)
			}
		}
	}
	if l.MWDist(2, 2) != 0 {
		t.Error("self distance non-zero")
	}
}

func TestPathStructure(t *testing.T) {
	cs, l := smallScenario(t)
	n := len(cs)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || math.IsInf(float64(l.MWDist(i, j)), 1) {
				continue
			}
			p := l.Path(i, j)
			if p[0] != i || p[len(p)-1] != j {
				t.Fatalf("path %d-%d has wrong endpoints: %v", i, j, p)
			}
			// Interior nodes must all be towers.
			for _, v := range p[1 : len(p)-1] {
				if v < n {
					t.Fatalf("path %d-%d passes through city node %d", i, j, v)
				}
			}
			// Tower count matches the tower path.
			if got, want := l.TowerCount(i, j), len(p)-2; got != want {
				t.Fatalf("TowerCount(%d,%d) = %d, want %d", i, j, got, want)
			}
			// Hops are consecutive tower pairs.
			hops := l.Hops(i, j)
			if want := l.TowerCount(i, j) - 1; len(hops) != want && want >= 0 {
				t.Fatalf("Hops(%d,%d) = %d entries, want %d", i, j, len(hops), want)
			}
		}
	}
}

func TestHopLengthsWithinRange(t *testing.T) {
	cs, l := smallScenario(t)
	maxRange := los.DefaultParams().MaxRange
	for i := 0; i < len(cs); i++ {
		for j := i + 1; j < len(cs); j++ {
			for _, h := range l.Hops(i, j) {
				d := l.Reg.Tower(h[0]).Loc.DistanceTo(l.Reg.Tower(h[1]).Loc)
				if d > maxRange {
					t.Fatalf("hop %v length %.0f m exceeds range %f", h, d, maxRange)
				}
			}
		}
	}
}

func TestDisjointPathsLengthen(t *testing.T) {
	cs, l := smallScenario(t)
	// Pick the best-connected pair.
	bi, bj := -1, -1
	best := units.Meters(math.Inf(1))
	for i := 0; i < len(cs); i++ {
		for j := i + 1; j < len(cs); j++ {
			if d := l.MWDist(i, j); d < best {
				best, bi, bj = d, i, j
			}
		}
	}
	if bi < 0 {
		t.Skip("no connected pair")
	}
	lens := l.DisjointTowerPaths(bi, bj, 5)
	if len(lens) == 0 {
		t.Fatal("no disjoint paths found")
	}
	for k := 1; k < len(lens); k++ {
		if lens[k] < lens[k-1]-1e-9 {
			t.Fatalf("disjoint path lengths not monotone: %v", lens)
		}
	}
	if lens[0] != best {
		t.Errorf("first disjoint path (%.0f) != shortest link (%.0f)", lens[0], best)
	}
}

func TestNoMWPathIsInf(t *testing.T) {
	// Two cities with zero towers anywhere: no MW connectivity.
	cs := cities.USCenters()[:2]
	reg := towers.NewRegistry(nil)
	ev := los.NewEvaluator(terrain.Flat(), los.DefaultParams())
	l := Build(cs, reg, ev)
	if !math.IsInf(float64(l.MWDist(0, 1)), 1) {
		t.Fatal("expected +Inf MW distance with no towers")
	}
	if l.TowerCount(0, 1) != 0 {
		t.Fatal("expected zero towers on nonexistent path")
	}
	if l.Path(0, 1) != nil {
		t.Fatal("expected nil path")
	}
}
