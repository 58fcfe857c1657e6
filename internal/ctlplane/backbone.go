package ctlplane

import (
	"sort"

	"cisp/internal/cities"
	"cisp/internal/geo"
	"cisp/internal/netsim"
	"cisp/internal/units"
)

// Backbone aliases netsim.Backbone, kept because the benchmark module names it.
type Backbone = netsim.Backbone

// SyntheticBackbone builds a deterministic netsim.Backbone over the given
// sites without running the design pipeline: each site gets microwave
// links to its nearestK nearest neighbors (deduplicated), laid out by
// PairBackbone. It is the fast-boot substrate for cmd/cispd; production
// deployments hand the daemon a designed topology
// (experiments.DesignedTETopology) instead.
func SyntheticBackbone(sites []cities.City, nearestK int, mwGbps, fiberGbps float64) *Backbone {
	if nearestK <= 0 {
		nearestK = 2
	}
	chosen := map[[2]int]bool{}
	for i := range sites {
		type cand struct {
			j int
			d units.Meters
		}
		var cs []cand
		for j := range sites {
			if j != i {
				cs = append(cs, cand{j, sites[i].Loc.DistanceTo(sites[j].Loc)})
			}
		}
		sort.Slice(cs, func(x, y int) bool {
			if cs[x].d != cs[y].d {
				return cs[x].d < cs[y].d
			}
			return cs[x].j < cs[y].j
		})
		for k := 0; k < nearestK && k < len(cs); k++ {
			a, b := i, cs[k].j
			if a > b {
				a, b = b, a
			}
			chosen[[2]int{a, b}] = true
		}
	}
	var pairs [][2]int
	for p := range chosen {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(x, y int) bool {
		if pairs[x][0] != pairs[y][0] {
			return pairs[x][0] < pairs[y][0]
		}
		return pairs[x][1] < pairs[y][1]
	})
	return PairBackbone(sites, pairs, mwGbps, fiberGbps)
}

// PairBackbone lays a hybrid backbone over explicit site pairs: one
// microwave link per pair at geodesic delay, in pair order, then for each
// pair a parallel fiber conduit through its own midpoint transit node at
// the paper's ~1.5× fiber stretch. mwGbps and fiberGbps set the uniform
// capacities.
func PairBackbone(sites []cities.City, pairs [][2]int, mwGbps, fiberGbps float64) *Backbone {
	b := &Backbone{Sites: sites, Nodes: len(sites)}
	for _, p := range pairs {
		d := float64(sites[p[0]].Loc.DistanceTo(sites[p[1]].Loc))
		b.Mw = append(b.Mw, netsim.TopoLink{
			A: p[0], B: p[1],
			RateBps:   units.Gbps(mwGbps),
			PropDelay: units.Seconds(d / geo.C),
		})
	}
	for _, p := range pairs {
		d := float64(sites[p[0]].Loc.DistanceTo(sites[p[1]].Loc)) * 1.5
		mid := b.Nodes
		b.Nodes++
		b.Fiber = append(b.Fiber,
			netsim.TopoLink{A: p[0], B: mid, RateBps: units.Gbps(fiberGbps), PropDelay: units.Seconds(d / 2 / geo.C)},
			netsim.TopoLink{A: mid, B: p[1], RateBps: units.Gbps(fiberGbps), PropDelay: units.Seconds(d / 2 / geo.C)})
	}
	return b
}

// GravityCommodities derives a dense-ID commodity list from site
// populations: demand between every site pair is proportional to the
// product of their populations (the classic gravity model), normalized so
// the total offered load is aggregateGbps. Pairs with zero product (data
// centers, zero-population sites) are skipped. Flow IDs are assigned in
// row-major pair order, so the list is stable for a given site set.
func GravityCommodities(sites []cities.City, aggregateGbps float64) []netsim.Commodity {
	var total float64
	for i := range sites {
		for j := i + 1; j < len(sites); j++ {
			total += float64(sites[i].Population) * float64(sites[j].Population)
		}
	}
	if total <= 0 {
		return nil
	}
	var comms []netsim.Commodity
	flow := 0
	for i := range sites {
		for j := i + 1; j < len(sites); j++ {
			w := float64(sites[i].Population) * float64(sites[j].Population)
			flow++
			if w <= 0 {
				continue
			}
			comms = append(comms, netsim.Commodity{
				Flow: flow, Src: i, Dst: j,
				Demand: units.Gbps(aggregateGbps * w / total),
			})
		}
	}
	return comms
}
