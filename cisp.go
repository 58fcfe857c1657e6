// Package cisp is the public entry point of the cISP library: a design and
// evaluation toolkit for nearly speed-of-light wide-area networks built from
// point-to-point microwave links layered over the existing fiber Internet,
// reproducing Bhattacherjee et al., "cISP: A Speed-of-Light Internet Service
// Provider" (NSDI 2022).
//
// The pipeline mirrors the paper's three design steps:
//
//  1. Step 1 (feasible hops): a Scenario assembles cities, synthetic terrain
//     and tower infrastructure, runs line-of-sight feasibility over every
//     tower pair in microwave range, and derives the shortest tower-path
//     microwave link (distance and tower cost) for every city pair.
//  2. Step 2 (topology design): DesignGreedy / DesignCISP / DesignExact pick
//     the subset of links to build under a tower budget, minimising
//     traffic-weighted latency stretch over the hybrid microwave+fiber
//     graph.
//  3. Step 3 (capacity): Provision routes a scaled traffic matrix over the
//     design, sizes links in parallel tower series (the k² rule) and prices
//     the build with the paper's cost model.
//
// Scenario construction is deterministic in its seed; all substrates
// (terrain, towers, fiber conduits, weather) are synthetic stand-ins
// calibrated against the paper's published aggregates — see DESIGN.md.
package cisp

import (
	"fmt"
	"strings"

	"cisp/internal/capacity"
	"cisp/internal/cities"
	"cisp/internal/cost"
	"cisp/internal/design"
	"cisp/internal/fiber"
	"cisp/internal/linkbuild"
	"cisp/internal/los"
	"cisp/internal/terrain"
	"cisp/internal/towers"
	"cisp/internal/traffic"
	"cisp/internal/units"
)

// Re-exported core types, so downstream users interact with one package.
type (
	// City is a design site (population center or data center).
	City = cities.City
	// Topology is a designed hybrid network.
	Topology = design.Topology
	// Problem is a Step-2 optimization instance.
	Problem = design.Problem
	// TrafficMatrix is a symmetric demand matrix.
	TrafficMatrix = traffic.Matrix
	// Plan is a Step-3 capacity plan.
	Plan = capacity.Plan
	// CostModel prices a plan.
	CostModel = cost.Model
)

// Region selects a geography for scenario construction.
type Region int

// Supported regions.
const (
	US Region = iota
	Europe
)

// Scale trades fidelity for runtime. Small keeps unit tests and benchmarks
// quick; Full approximates the paper's 120-city, ~12k-tower instance.
type Scale int

// Scenario scales.
const (
	ScaleSmall  Scale = iota // ~25 cities, sparse towers (seconds)
	ScaleMedium              // ~60 cities (tens of seconds)
	ScaleFull                // all centers, paper-scale towers (minutes)
)

// ParseScale parses a scale name — small, medium or full, in any case —
// as the command-line tools take it.
func ParseScale(name string) (Scale, error) {
	switch strings.ToLower(name) {
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "full":
		return ScaleFull, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want small, medium or full)", name)
}

// ScenarioConfig controls scenario synthesis.
type ScenarioConfig struct {
	Region Region
	Scale  Scale
	Seed   int64

	// MaxCities overrides the scale's city count when > 0.
	MaxCities int

	// Sites, when non-nil, replaces the region's city list entirely (e.g.
	// cities plus data-center sites for the §6.3 traffic models).
	Sites []City

	// LOS overrides the line-of-sight parameters (§6.5 sweeps); zero value
	// means the paper's defaults (11 GHz, K=1.3, 100 km, tower tops).
	LOS los.Params
}

// Scenario is an assembled Step-1 world: sites, infrastructure, and the
// per-pair microwave/fiber inputs for topology design.
type Scenario struct {
	Config   ScenarioConfig
	Cities   []City
	Terrain  *terrain.Model
	Registry *towers.Registry
	Eval     *los.Evaluator
	Links    *linkbuild.Links
	FiberNet *fiber.Network
}

func (c *ScenarioConfig) cityCount() int {
	if c.MaxCities > 0 {
		return c.MaxCities
	}
	switch c.Scale {
	case ScaleMedium:
		return 60
	case ScaleFull:
		return 1 << 30 // all
	default:
		return 25
	}
}

func (c *ScenarioConfig) towerGen() towers.GenConfig {
	g := towers.GenConfig{Seed: c.Seed + 1}
	switch c.Scale {
	case ScaleMedium:
		g.RuralPerCell = 1.2
		g.CityTowerScale = 10
	case ScaleFull:
		g.RuralPerCell = 1.8
		g.CityTowerScale = 12
	default:
		g.RuralPerCell = 0.7
		g.CityTowerScale = 8
	}
	return g
}

// Cities returns the sites a scenario built from the config has: Sites
// when set, otherwise the region's population centers cut to the scale's
// city count. It builds nothing, so a caller that needs a world's site
// list (to extend it, say) need not build that world.
func (c ScenarioConfig) Cities() []City {
	if c.Sites != nil {
		return c.Sites
	}
	var cs []City
	switch c.Region {
	case Europe:
		cs = cities.EuropeCenters()
	default:
		cs = cities.USCenters()
	}
	if n := c.cityCount(); len(cs) > n {
		cs = cs[:n]
	}
	return cs
}

// NewScenario synthesises a scenario: city set, terrain, tower registry,
// Step-1 microwave links, and the fiber conduit network.
func NewScenario(cfg ScenarioConfig) *Scenario {
	cs := cfg.Cities()
	var terr *terrain.Model
	if cfg.Region == Europe {
		terr = terrain.Europe(cfg.Seed)
	} else {
		terr = terrain.ContiguousUS(cfg.Seed)
	}
	p := cfg.LOS
	if p.MaxRange == 0 {
		p = los.DefaultParams()
		p.UsableHeightFrac = orDefault(cfg.LOS.UsableHeightFrac, 1)
	}
	ev := los.NewEvaluator(terr, p)
	reg := towers.Generate(cfg.towerGen(), cs)
	links := linkbuild.Build(cs, reg, ev)
	fn := fiber.Synthesize(fiber.Config{Seed: cfg.Seed + 2}, cs)
	return &Scenario{
		Config: cfg, Cities: cs, Terrain: terr, Registry: reg,
		Eval: ev, Links: links, FiberNet: fn,
	}
}

func orDefault(v, d float64) float64 {
	if v == 0 {
		return d
	}
	return v
}

// Problem assembles a Step-2 instance from the scenario's Step-1 outputs,
// the given relative traffic matrix and tower budget.
func (s *Scenario) Problem(tm TrafficMatrix, budgetTowers float64) (*Problem, error) {
	n := len(s.Cities)
	if tm.N() != n {
		return nil, fmt.Errorf("cisp: traffic matrix is %d×%d, scenario has %d cities", tm.N(), tm.N(), n)
	}
	mk := func() [][]float64 {
		m := make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n)
		}
		return m
	}
	p := &Problem{
		N: n, Budget: budgetTowers,
		Traffic:  tm,
		Geodesic: mk(), MW: mk(), MWCost: mk(), FiberLat: mk(),
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			p.Geodesic[i][j] = float64(s.Cities[i].Loc.DistanceTo(s.Cities[j].Loc))
			p.MW[i][j] = float64(s.Links.MWDist(i, j))
			p.MWCost[i][j] = float64(s.Links.TowerCount(i, j))
			p.FiberLat[i][j] = float64(s.FiberNet.LatencyDist(i, j))
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// DesignGreedy runs the plain greedy heuristic under the budget.
func (s *Scenario) DesignGreedy(tm TrafficMatrix, budgetTowers float64) (*Topology, error) {
	p, err := s.Problem(tm, budgetTowers)
	if err != nil {
		return nil, err
	}
	return design.Greedy(p, design.GreedyOptions{}), nil
}

// DesignCISP runs the paper's full design method: greedy candidate pruning
// at 2× budget followed by exact selection over the candidates. The
// refinement's branch-and-bound node budget shrinks with problem size (each
// node costs O(candidates·n²)), mirroring the paper's observation that at
// scale the heuristic itself must carry the solution quality.
func (s *Scenario) DesignCISP(tm TrafficMatrix, budgetTowers float64) (*Topology, error) {
	p, err := s.Problem(tm, budgetTowers)
	if err != nil {
		return nil, err
	}
	maxNodes := 5_000_000 / (p.N * p.N)
	if maxNodes < 500 {
		maxNodes = 500
	}
	if maxNodes > 200_000 {
		maxNodes = 200_000
	}
	return design.GreedyILP(p, maxNodes), nil
}

// PopulationTraffic returns the §4 population-product matrix for the
// scenario's cities.
func (s *Scenario) PopulationTraffic() TrafficMatrix {
	return traffic.PopulationProduct(s.Cities)
}

// Provision runs Step 3: route demandGbps (a matrix in Gbps) over the
// topology and size every link.
func (s *Scenario) Provision(top *Topology, demand TrafficMatrix) *Plan {
	return capacity.Provision(top, s.Links, demand, capacity.Options{})
}

// CostPerGB prices a provisioned plan at the given sustained aggregate
// throughput using the paper's §2 cost model.
func (s *Scenario) CostPerGB(plan *Plan, aggregateGbps float64) float64 {
	m := cost.DefaultModel()
	bill := m.Compute(plan.HopInstalls, plan.NewTowers, plan.TowersUsed)
	return m.CostPerGB(bill, aggregateGbps)
}

// GoogleDCSites returns the six publicly known US Google data-center sites
// used by the §6.3 traffic models.
func GoogleDCSites() []City { return cities.GoogleDCs() }

// ScaleTraffic scales a traffic matrix so its total demand equals
// aggregateGbps, returning a copy.
func ScaleTraffic(tm TrafficMatrix, aggregateGbps float64) TrafficMatrix {
	return traffic.ScaleToAggregate(tm, units.Gbps(aggregateGbps))
}

// DefaultBudget returns the paper-proportional tower budget for the
// scenario: the US design uses ~25 towers per city (3,000 towers for 120
// cities).
func (s *Scenario) DefaultBudget() float64 {
	return 25 * float64(len(s.Cities))
}
