// Package acquisition implements the paper's §6.5 route-engineering
// refinement: while the design study treats the shortest tower path as the
// link, building a real route contends with towers that "are not available
// to rent" or lack antenna space at the needed height. The paper's practice:
//
//	"we assign each tower in a swathe connecting the sites an acquisition
//	probability, which depends on a number of factors (e.g., tower type,
//	ownership, location). Further, for towers that can be acquired, we use
//	a uniform distribution to model height at which space for antennae is
//	available. With this probabilistic model, we compute thousands of
//	candidate MW paths between site pairs, with refinements as acquisitions
//	and height availabilities are confirmed."
//
// Refine does exactly that: it samples acquisition outcomes for every tower
// in the corridor between two sites, re-evaluates line-of-sight feasibility
// at the sampled antenna heights, and extracts the best feasible path per
// sample — yielding a distribution of buildable route lengths and the
// per-tower probability of appearing in the final route. Confirmations
// (a tower definitely acquired or definitely refused) condition subsequent
// samples, mirroring the paper's progressive refinement.
package acquisition

import (
	"math"
	"math/rand"
	"sort"

	"cisp/internal/geo"
	"cisp/internal/graph"
	"cisp/internal/los"
	"cisp/internal/towers"
	"cisp/internal/units"
)

// Model assigns acquisition probabilities and height availability.
type Model struct {
	// RentalProb and OtherProb are acquisition probabilities for rental-
	// company towers versus everything else. Defaults 0.9 and 0.55 — rental
	// towers are "typically suitable for use" (§4).
	RentalProb float64
	OtherProb  float64
}

// minHeightFrac is the lower bound of the uniform distribution over the
// usable antenna-height fraction on an acquired tower: 0.45, the paper's
// most restrictive §6.5 level. The upper bound is 1.
const minHeightFrac = 0.45

func (m *Model) setDefaults() {
	if m.RentalProb == 0 {
		m.RentalProb = 0.9
	}
	if m.OtherProb == 0 {
		m.OtherProb = 0.55
	}
}

// Status is a confirmed acquisition fact about a tower.
type Status int

// Tower acquisition states.
const (
	Unknown  Status = iota // sampled probabilistically
	Acquired               // confirmed available (height still sampled)
	Refused                // confirmed unavailable
)

// Request describes a refinement run between two sites.
type Request struct {
	A, B geo.Point

	// Samples is the number of Monte-Carlo path computations ("thousands of
	// candidate MW paths" at production scale). Default 200.
	Samples int

	Seed int64

	// Confirmed conditions the sampling: tower ID → status.
	Confirmed map[int]Status
}

func (r *Request) setDefaults() {
	if r.Samples == 0 {
		r.Samples = 200
	}
}

// Result summarises the sampled route distribution.
type Result struct {
	// Feasible counts samples in which a buildable path existed.
	Feasible int
	Samples  int

	// Lengths holds the buildable path length of each feasible sample,
	// meters (sorted ascending).
	Lengths []units.Meters

	// BestLength and WorstLength bound the feasible samples.
	BestLength, WorstLength units.Meters

	// TowerUseRate maps tower ID → fraction of feasible samples whose best
	// path used it. High-rate towers are the ones worth confirming first.
	TowerUseRate map[int]float64
}

// MedianLength returns the median buildable length (NaN if none feasible).
func (r *Result) MedianLength() units.Meters {
	if len(r.Lengths) == 0 {
		return units.Meters(math.NaN())
	}
	return r.Lengths[len(r.Lengths)/2]
}

// FeasibleRate returns the fraction of samples with a buildable path.
func (r *Result) FeasibleRate() float64 {
	if r.Samples == 0 {
		return 0
	}
	return float64(r.Feasible) / float64(r.Samples)
}

// Refine runs the §6.5 Monte-Carlo route refinement over the registry using
// the evaluator's terrain and physics. The evaluator's own UsableHeightFrac
// is ignored; height availability is sampled per tower per the model.
func Refine(reg *towers.Registry, ev *los.Evaluator, model Model, req Request) *Result {
	model.setDefaults()
	req.setDefaults()
	rng := rand.New(rand.NewSource(req.Seed))

	// Corridor towers: within swatheWidth of the A-B geodesic (sampled at
	// registry resolution via range queries along the line).
	corridor := corridorTowers(reg, req.A, req.B)
	res := &Result{Samples: req.Samples, TowerUseRate: make(map[int]float64)}
	if len(corridor) == 0 {
		return res
	}

	maxRange := ev.Params.MaxRange
	// Precompute candidate hops among corridor towers (by distance only;
	// LOS is height-dependent and checked per sample).
	type hop struct {
		i, j int // indices into corridor
		d    units.Meters
	}
	var hops []hop
	for i := 0; i < len(corridor); i++ {
		for j := i + 1; j < len(corridor); j++ {
			ti, tj := reg.Tower(corridor[i]), reg.Tower(corridor[j])
			if d := ti.Loc.DistanceTo(tj.Loc); d <= maxRange {
				hops = append(hops, hop{i: i, j: j, d: d})
			}
		}
	}

	for s := 0; s < req.Samples; s++ {
		// Sample acquisition and heights.
		avail := make([]bool, len(corridor))
		heightFrac := make([]float64, len(corridor))
		for k, id := range corridor {
			t := reg.Tower(id)
			switch req.Confirmed[id] {
			case Acquired:
				avail[k] = true
			case Refused:
				avail[k] = false
			default:
				p := model.OtherProb
				if t.Rental {
					p = model.RentalProb
				}
				avail[k] = rng.Float64() < p
			}
			if avail[k] {
				heightFrac[k] = minHeightFrac + rng.Float64()*(1-minHeightFrac)
			}
		}

		// Build this sample's hop graph: nodes = [A, B, corridor...].
		g := graph.New[units.Meters](len(corridor) + 2)
		const aNode, bNode = 0, 1
		for k, id := range corridor {
			if !avail[k] {
				continue
			}
			t := reg.Tower(id)
			// Site gateways attach within 35 km, as in Step 1.
			if d := req.A.DistanceTo(t.Loc); d <= 35e3 {
				g.AddEdge(aNode, 2+k, d)
			}
			if d := req.B.DistanceTo(t.Loc); d <= 35e3 {
				g.AddEdge(bNode, 2+k, d)
			}
		}
		for _, h := range hops {
			if !avail[h.i] || !avail[h.j] {
				continue
			}
			ti, tj := reg.Tower(corridor[h.i]), reg.Tower(corridor[h.j])
			ai := ev.Terrain.Elevation(ti.Loc) + ti.Height*heightFrac[h.i]
			aj := ev.Terrain.Elevation(tj.Loc) + tj.Height*heightFrac[h.j]
			if ev.PointFeasible(ti.Loc, tj.Loc, ai, aj) {
				g.AddEdge(2+h.i, 2+h.j, h.d)
			}
		}
		path, length := g.ShortestPath(aNode, bNode)
		if path == nil {
			continue
		}
		res.Feasible++
		res.Lengths = append(res.Lengths, length)
		for _, v := range path {
			if v >= 2 {
				res.TowerUseRate[corridor[v-2]]++
			}
		}
	}

	sort.Slice(res.Lengths, func(i, j int) bool { return res.Lengths[i] < res.Lengths[j] })
	if len(res.Lengths) > 0 {
		res.BestLength = res.Lengths[0]
		res.WorstLength = res.Lengths[len(res.Lengths)-1]
	}
	for id := range res.TowerUseRate {
		res.TowerUseRate[id] /= float64(res.Feasible)
	}
	return res
}

// swatheWidth bounds the corridor around the A-B geodesic from which
// towers may be drawn: 60 km, §3.3's siting tolerance.
const swatheWidth units.Meters = 60e3

// corridorTowers returns registry IDs within swatheWidth of the A-B
// geodesic.
func corridorTowers(reg *towers.Registry, a, b geo.Point) []int {
	arc := a.ArcTo(b)
	total := arc.Length()
	step := swatheWidth // sample the line at corridor-width pitch
	n := int(total/step) + 1
	seen := map[int]bool{}
	var out []int
	for i := 0; i <= n; i++ {
		p := arc.At(float64(i) / float64(n))
		for _, id := range reg.WithinRange(p, swatheWidth) {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Ints(out)
	return out
}

// PriorityTowers returns the towers most worth confirming next: the
// highest-use-rate towers not yet confirmed, best first.
func PriorityTowers(res *Result, confirmed map[int]Status, k int) []int {
	type tu struct {
		id   int
		rate float64
	}
	var ts []tu
	for id, rate := range res.TowerUseRate {
		if confirmed[id] == Unknown {
			ts = append(ts, tu{id, rate})
		}
	}
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].rate != ts[b].rate {
			return ts[a].rate > ts[b].rate
		}
		return ts[a].id < ts[b].id
	})
	if len(ts) > k {
		ts = ts[:k]
	}
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = t.id
	}
	return out
}
