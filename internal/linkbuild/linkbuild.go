// Package linkbuild implements Step 1 of the cISP design (§3.1, §4): given a
// tower registry and a line-of-sight evaluator, it finds every feasible
// tower-tower hop, then computes for each city pair the shortest microwave
// link through the tower graph — yielding the per-pair latency distance m_ij
// and cost c_ij (number of towers) that feed the Step-2 optimizer.
//
// The combined graph has city nodes 0..n-1 and tower nodes n..n+T-1. Cities
// attach to towers within attachRange without a line-of-sight test, matching
// the paper's observation that "each city itself hosts enough towers to use
// as the starting point for connectivity from that site".
package linkbuild

import (
	"math"

	"cisp/internal/cities"
	"cisp/internal/graph"
	"cisp/internal/los"
	"cisp/internal/parallel"
	"cisp/internal/towers"
	"cisp/internal/units"
)

// attachRange is how far a city gateway may reach to its first tower:
// 35 km.
const attachRange units.Meters = 35e3

// Links holds the Step-1 output: the hop graph and the all-pairs shortest
// microwave links over it.
type Links struct {
	Cities []cities.City
	Reg    *towers.Registry

	g            *graph.Graph[units.Meters]
	dist         [][]units.Meters // city-city MW latency distance (+Inf if no MW path)
	prev         [][]int          // per-source-city Dijkstra tree over the full graph
	feasibleHops int
}

// Build runs Step 1. Hop feasibility checks run in parallel.
func Build(cs []cities.City, reg *towers.Registry, ev *los.Evaluator) *Links {
	n := len(cs)
	T := reg.Len()
	g := graph.New[units.Meters](n + T)

	// City gateways: attach each city to all towers within range.
	for i, city := range cs {
		for _, id := range reg.WithinRange(city.Loc, attachRange) {
			g.AddEdge(i, n+id, city.Loc.DistanceTo(reg.Tower(id).Loc))
		}
	}

	// Candidate tower pairs within microwave range, then LOS checks fanned
	// out on the shared pool (each check owns its feasible[k] slot). Each
	// tower's antenna height above sea level is computed once, not once per
	// candidate hop.
	type pair struct{ i, j int }
	var cands []pair
	reg.Pairs(ev.Params.MaxRange, func(i, j int) {
		cands = append(cands, pair{i, j})
	})
	asl := make([]float64, T)
	parallel.For(T, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			asl[i] = ev.AntennaASL(reg.Tower(i))
		}
	})
	feasible := make([]bool, len(cands))
	parallel.For(len(cands), 32, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			i, j := cands[k].i, cands[k].j
			feasible[k] = ev.PointFeasible(reg.Tower(i).Loc, reg.Tower(j).Loc, asl[i], asl[j])
		}
	})

	hops := 0
	for k, ok := range feasible {
		if ok {
			i, j := cands[k].i, cands[k].j
			g.AddEdge(n+i, n+j, reg.Tower(i).Loc.DistanceTo(reg.Tower(j).Loc))
			hops++
		}
	}

	// All-pairs shortest microwave links: one Dijkstra per city, each city
	// owning its own row, fanned out on the pool.
	l := &Links{Cities: cs, Reg: reg, g: g, feasibleHops: hops}
	l.dist = make([][]units.Meters, n)
	l.prev = make([][]int, n)
	parallel.For(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d, p := g.Dijkstra(i)
			l.dist[i] = d[:n:n]
			l.prev[i] = p
		}
	})
	// Mirror for exact symmetry.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l.dist[j][i] = l.dist[i][j]
		}
	}
	return l
}

// FeasibleHops returns the number of feasible tower-tower hops found —
// comparable to the paper's 261,019 (at its full data scale).
func (l *Links) FeasibleHops() int { return l.feasibleHops }

// Graph exposes the combined city+tower hop graph.
func (l *Links) Graph() *graph.Graph[units.Meters] { return l.g }

// MWDist returns the length of the shortest microwave link between
// cities i and j, or +Inf if no tower path exists. Microwave propagates at
// c, so this is also the latency-equivalent distance m_ij.
func (l *Links) MWDist(i, j int) units.Meters {
	if i == j {
		return 0
	}
	return l.dist[i][j]
}

// Path returns the node sequence of the shortest link from city i to city j
// over the combined graph (city IDs < len(Cities), tower nodes offset by
// len(Cities)), or nil if unreachable.
func (l *Links) Path(i, j int) []int {
	if math.IsInf(float64(l.dist[i][j]), 1) {
		return nil
	}
	var rev []int
	for v := j; v != -1; v = l.prev[i][v] {
		rev = append(rev, v)
		if v == i {
			break
		}
	}
	for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
		rev[a], rev[b] = rev[b], rev[a]
	}
	return rev
}

// TowerPath returns the registry tower IDs along the i→j link, in order.
func (l *Links) TowerPath(i, j int) []int {
	n := len(l.Cities)
	var ts []int
	for _, v := range l.Path(i, j) {
		if v >= n {
			ts = append(ts, v-n)
		}
	}
	return ts
}

// TowerCount returns c_ij, the cost of the i→j link in towers (the paper's
// budget unit). Zero means no microwave path exists (or i==j).
func (l *Links) TowerCount(i, j int) int { return len(l.TowerPath(i, j)) }

// Hops returns the physical tower-tower hops of the i→j link as ordered
// tower-ID pairs (gateway city-tower segments excluded).
func (l *Links) Hops(i, j int) [][2]int {
	ts := l.TowerPath(i, j)
	if len(ts) < 2 {
		return nil
	}
	out := make([][2]int, 0, len(ts)-1)
	for k := 0; k+1 < len(ts); k++ {
		out = append(out, [2]int{ts[k], ts[k+1]})
	}
	return out
}

// DisjointTowerPaths returns up to k tower-disjoint microwave paths between
// cities i and j: after each path is found its towers are removed and the
// search repeats — the paper's Fig 4b procedure.
func (l *Links) DisjointTowerPaths(i, j, k int) (lengths []units.Meters) {
	_, lens := l.g.DisjointPaths(i, j, k)
	return lens
}
