package design_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"cisp"
	"cisp/internal/design"
)

// The branch-and-bound search pins. Each search is pinned by the number
// of nodes it visits, the links it builds and the bits of its mean
// stretch, recorded from the search that rebuilt every node's bound by
// inserting all remaining candidates into a clone of the node. A bound
// assembled in another insertion order is the same sum, but its last bits
// can differ and flip a prune; these pins catch that, capped searches
// included.

var planner struct {
	sync.Once
	s *cisp.Scenario
}

// plannerWorld is the 25-city US world at seed 1: the world the plan
// benchmark designs, and the one cispbench's small seed-1 Fig 2 cuts its
// instances from.
func plannerWorld() *cisp.Scenario {
	planner.Do(func() {
		planner.s = cisp.NewScenario(cisp.ScenarioConfig{Region: cisp.US, Scale: cisp.ScaleSmall, Seed: 1, MaxCities: 25})
	})
	return planner.s
}

// fig2Instance is Fig 2's n-city instance: the first n sites of the full
// problem at a budget of 50 towers per city.
func fig2Instance(t *testing.T, n int) *design.Problem {
	s := plannerWorld()
	full, err := s.Problem(s.PopulationTraffic(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cut := func(m [][]float64) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = m[i][:n:n]
		}
		return out
	}
	return &design.Problem{
		N: n, Budget: 50 * float64(n),
		Traffic: cut(full.Traffic), Geodesic: cut(full.Geodesic),
		MW: cut(full.MW), MWCost: cut(full.MWCost), FiberLat: cut(full.FiberLat),
	}
}

// searchPin is what one pinned search must reproduce.
type searchPin struct {
	nodes   int
	links   string // built links as sorted "i-j" pairs
	stretch uint64 // math.Float64bits of MeanStretch
}

func linkSet(top *design.Topology) string {
	pairs := make([]string, len(top.Built))
	for k, l := range top.Built {
		i, j := min(l.I, l.J), max(l.I, l.J)
		pairs[k] = fmt.Sprintf("%02d-%02d", i, j)
	}
	slices.Sort(pairs)
	return strings.Join(pairs, " ")
}

func checkPin(t *testing.T, name string, top *design.Topology, nodes int, want searchPin) {
	t.Helper()
	got := searchPin{nodes: nodes, links: linkSet(top), stretch: math.Float64bits(top.MeanStretch())}
	if got != want {
		t.Errorf("%s: %d nodes, links %q, stretch bits %#x (%.6f); want %d nodes, links %q, stretch bits %#x",
			name, got.nodes, got.links, got.stretch, top.MeanStretch(), want.nodes, want.links, want.stretch)
	}
}

// TestDesignCISPSearchPinned pins the plan benchmark's design: DesignCISP
// on the 25-city world at its default budget, whose refinement search
// stops at its cap of 5 000 000 / 25² = 8 000 nodes.
func TestDesignCISPSearchPinned(t *testing.T) {
	s := plannerWorld()
	tm := s.PopulationTraffic()
	p, err := s.Problem(tm, s.DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	top, nodes := design.GreedyILPNodes(p, 8_000)
	checkPin(t, "GreedyILP(plan world, 8000)", top, nodes, searchPin{
		nodes:   8_024,
		links:   "00-08 00-20 01-04 01-07 01-22 02-03 02-04 02-06 02-12 02-16 02-18 02-19 02-24 03-12 03-14 03-18 03-20 04-07 04-12 05-12 06-09 06-11 06-17 06-18 06-19 06-23 08-10 08-14 08-20 08-23 09-19 10-17 10-20 10-21 11-17 12-13 12-16 12-19 12-22 14-18 16-18 17-18 18-20 18-24 20-21 20-23 21-23 21-24",
		stretch: 0x3ff3ec5c06e98c44,
	})
	viaScenario, err := s.DesignCISP(tm, s.DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if linkSet(viaScenario) != linkSet(top) || viaScenario.MeanStretch() != top.MeanStretch() {
		t.Errorf("DesignCISP built %q, the pinned search %q", linkSet(viaScenario), linkSet(top))
	}
}

// TestFig2SearchesPinned pins Fig 2's 10-city searches on the small seed-1
// world: the cISP heuristic, whose refinement stops at its 50 000-node
// cap, and the exact search, which finishes under its 1 000 000-node cap.
func TestFig2SearchesPinned(t *testing.T) {
	p := fig2Instance(t, 10)
	top, nodes := design.GreedyILPNodes(p, 50_000)
	checkPin(t, "GreedyILP(fig 2 at 10 cities, 50000)", top, nodes, searchPin{
		nodes:   50_011,
		links:   "00-03 00-08 01-02 01-03 01-04 01-07 02-03 02-04 02-05 02-06 02-08 02-09 03-04 03-05 03-06 03-08 04-06 04-07 04-09 06-08 06-09",
		stretch: 0x3ff398e632880fce,
	})
	top, nodes, complete := design.ExactNodes(p, 1_000_000)
	checkPin(t, "Exact(fig 2 at 10 cities, 1000000)", top, nodes, searchPin{
		nodes:   786_908,
		links:   "00-01 00-03 00-08 01-04 01-07 02-03 02-04 02-05 02-06 02-08 02-09 03-04 03-05 03-06 03-08 04-05 04-06 04-07 04-09 06-08 06-09",
		stretch: 0x3ff3981969271878,
	})
	if !complete {
		t.Error("the 10-city exact search did not finish under its cap")
	}
}
