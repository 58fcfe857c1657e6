// Package fiber provides a synthetic long-haul fiber-conduit network
// standing in for the InterTubes dataset (§4). The paper uses fiber two
// ways: as the cheap, plentiful-bandwidth fallback the hybrid design mixes
// with microwave, and as the latency baseline (shortest-path fiber is 1.93×
// c-latency: ~1.3× route circuitousness times the 1.5× refractive penalty).
//
// The synthetic conduit graph connects each city to a handful of nearby
// cities with circuitous edges (conduits follow roads and rail, not great
// circles), plus spanning edges to guarantee connectivity. Per-edge detour
// factors are deterministic in the seed. The calibration target — mean
// latency inflation over city pairs of ≈1.9× c-latency — is asserted by the
// package tests, matching the paper's measured fiber baseline.
package fiber

import (
	"math"
	"math/rand"
	"sort"

	"cisp/internal/cities"
	"cisp/internal/geo"
	"cisp/internal/graph"
	"cisp/internal/units"
)

// Network is an immutable fiber-conduit network over a fixed city set, with
// all-pairs shortest conduit routes precomputed.
type Network struct {
	cities []cities.City
	g      *graph.Graph[units.Meters]
	dist   [][]units.Meters // physical route length
}

// Conduit synthesis: each city's nearest neighbors get conduits whose
// circuitousness is drawn uniformly between the two detour factors.
const (
	neighbors = 6    // conduits per city to nearest neighbors
	minDetour = 1.08 // minimum conduit circuitousness
	maxDetour = 1.35 // maximum conduit circuitousness
)

// Config parameterises synthesis.
type Config struct {
	Seed int64
}

// Synthesize builds the conduit network for the given cities.
func Synthesize(cfg Config, cs []cities.City) *Network {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := len(cs)
	g := graph.New[units.Meters](n)
	added := make(map[[2]int]bool)

	addEdge := func(i, j int) {
		if i == j {
			return
		}
		if i > j {
			i, j = j, i
		}
		k := [2]int{i, j}
		if added[k] {
			return
		}
		added[k] = true
		detour := minDetour + rng.Float64()*(maxDetour-minDetour)
		g.AddEdge(i, j, units.Meters(float64(cs[i].Loc.DistanceTo(cs[j].Loc))*detour))
	}

	// k-nearest-neighbor conduits.
	for i := 0; i < n; i++ {
		type nb struct {
			j int
			d units.Meters
		}
		nbs := make([]nb, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				nbs = append(nbs, nb{j, cs[i].Loc.DistanceTo(cs[j].Loc)})
			}
		}
		sort.Slice(nbs, func(a, b int) bool { return nbs[a].d < nbs[b].d })
		for k := 0; k < neighbors && k < len(nbs); k++ {
			addEdge(i, nbs[k].j)
		}
	}

	// Guarantee a single component: greedily join components by their
	// closest city pair until connected.
	for {
		comp := components(g)
		if maxComp(comp) == 0 { // single component (all zero) or empty
			break
		}
		bi, bj, bd := -1, -1, units.Meters(math.Inf(1))
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if comp[i] != comp[j] {
					if d := cs[i].Loc.DistanceTo(cs[j].Loc); d < bd {
						bi, bj, bd = i, j, d
					}
				}
			}
		}
		if bi < 0 {
			break
		}
		addEdge(bi, bj)
	}

	// Precompute all-pairs conduit routes; mirror the upper triangle so
	// lengths are exactly symmetric despite float summation order.
	dist := make([][]units.Meters, n)
	for i := 0; i < n; i++ {
		d, _ := g.Dijkstra(i)
		dist[i] = d
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dist[j][i] = dist[i][j]
		}
	}
	return &Network{cities: cs, g: g, dist: dist}
}

// components labels nodes by connected component (0-based).
func components(g *graph.Graph[units.Meters]) []int {
	n := g.N()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	for i := 0; i < n; i++ {
		if comp[i] != -1 {
			continue
		}
		stack := []int{i}
		comp[i] = next
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.Neighbors(u) {
				if comp[e.To] == -1 {
					comp[e.To] = next
					stack = append(stack, e.To)
				}
			}
		}
		next++
	}
	return comp
}

func maxComp(comp []int) int {
	m := 0
	for _, c := range comp {
		if c > m {
			m = c
		}
	}
	return m
}

// Graph exposes the conduit graph (for weather rerouting and tests).
func (nw *Network) Graph() *graph.Graph[units.Meters] { return nw.g }

// RouteLen returns the physical length of the shortest conduit route
// between cities i and j, or +Inf if disconnected.
func (nw *Network) RouteLen(i, j int) units.Meters { return nw.dist[i][j] }

// LatencyDist returns the latency-equivalent distance of the fiber route:
// physical length times the 1.5× refractive penalty. This is the o_ij × 1.5
// input to the design optimizer.
func (nw *Network) LatencyDist(i, j int) units.Meters {
	return nw.dist[i][j] * geo.FiberLatencyFactor
}

// MeanStretch returns the traffic-unweighted mean, over distinct city pairs,
// of fiber latency-distance over geodesic distance — the paper's "1.93×
// c-latency" fiber baseline metric.
func (nw *Network) MeanStretch() float64 {
	n := len(nw.cities)
	sum, cnt := 0.0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			geod := nw.cities[i].Loc.DistanceTo(nw.cities[j].Loc)
			if geod <= 0 || math.IsInf(float64(nw.dist[i][j]), 1) {
				continue
			}
			sum += units.Ratio(nw.LatencyDist(i, j), geod)
			cnt++
		}
	}
	if cnt == 0 {
		return math.NaN()
	}
	return sum / float64(cnt)
}
