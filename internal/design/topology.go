package design

import (
	"math"

	"cisp/internal/obs"
	"cisp/internal/parallel"
)

// Grain sizes for the pool: a parallel region only fans out goroutines when
// its index range exceeds the grain, so small instances (the exact solvers'
// regime, where AddLink and objective sit inside a branch-and-bound loop)
// keep running inline with zero scheduling overhead. Per-index work in the
// APSP update and the stretch reductions is O(n), so the grain is a row
// count; candidate gains are O(n²) each, so there the grain is 1.
const (
	apsGrain     = 64 // sources per updateAPSP / rows per objective reduction
	gainGrain    = 1  // candidate pairs per gain evaluation
	closureGrain = 16 // Dijkstra sources per fiberClosure fan-out
)

// Link is one built microwave city-city link.
type Link struct {
	I, J int
	Dist float64 // latency-equivalent meters (m_ij)
	Cost float64 // towers (c_ij)
}

// Topology is a (partial) design: the set of built microwave links over the
// always-available fiber substrate, with the hybrid all-pairs shortest
// latency-distance matrix maintained incrementally.
type Topology struct {
	P     *Problem
	Built []Link

	d      [][]float64 // hybrid latency-equivalent APSP
	fiberD [][]float64 // fiber-only metric closure (for pruning/baselines)
	cost   float64
}

// NewTopology returns the fiber-only topology for p (no microwave links).
func NewTopology(p *Problem) *Topology {
	fd := p.fiberClosure()
	d := make([][]float64, p.N)
	for i := range d {
		d[i] = make([]float64, p.N)
		copy(d[i], fd[i])
	}
	return &Topology{P: p, d: d, fiberD: fd}
}

// Clone returns an independent copy of the topology.
func (t *Topology) Clone() *Topology {
	c := &Topology{P: t.P, fiberD: t.fiberD, cost: t.cost}
	c.Built = append([]Link(nil), t.Built...)
	c.d = make([][]float64, len(t.d))
	for i := range t.d {
		c.d[i] = append([]float64(nil), t.d[i]...)
	}
	return c
}

// copyFrom makes t an independent copy of src, reusing t's storage; t
// must cover the same number of sites.
func (t *Topology) copyFrom(src *Topology) {
	t.P, t.fiberD, t.cost = src.P, src.fiberD, src.cost
	t.Built = append(t.Built[:0], src.Built...)
	for i := range src.d {
		copy(t.d[i], src.d[i])
	}
}

// normPair returns the (min,max) normalization of a link key.
func normPair(i, j int) [2]int {
	if i > j {
		i, j = j, i
	}
	return [2]int{i, j}
}

// AddLink builds the microwave link (i,j) and updates the APSP matrix in
// O(n²) using the single-edge-insertion identity.
func (t *Topology) AddLink(i, j int) {
	w := t.P.MW[i][j]
	t.Built = append(t.Built, Link{I: i, J: j, Dist: w, Cost: t.P.MWCost[i][j]})
	t.cost += t.P.MWCost[i][j]
	obs.Active().Counter("cisp_design_apsp_updates_total").Inc()
	updateAPSP(t.d, i, j, w)
}

// updateAPSP relaxes all pairs through a new edge (i,j) of weight w.
//
// At greedy scale (n > apsGrain) the endpoint rows are snapshotted first,
// so every source relaxes against the pre-insertion distances: the
// single-edge-insertion identity needs nothing newer (a shortest path uses
// the new edge at most once), and it makes the per-source relaxations
// order-independent — the pool fans them out with results bit-identical at
// every worker count. Small instances (the exact solvers' regime, where
// AddLink sits inside a branch-and-bound loop) keep the allocation-free
// in-place scan; the gate depends only on n, never on the worker count.
func updateAPSP(d [][]float64, i, j int, w float64) {
	n := len(d)
	if n <= apsGrain {
		for s := 0; s < n; s++ {
			relaxRow(d[s], d[i], d[j], i, j, w, n)
		}
		return
	}
	di := append([]float64(nil), d[i]...)
	dj := append([]float64(nil), d[j]...)
	parallel.For(n, apsGrain, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			relaxRow(d[s], di, dj, i, j, w, n)
		}
	})
}

// relaxRow relaxes one source row through the new edge (i,j): ds[u] =
// min(ds[u], ds[i]+w+dj[u], ds[j]+w+di[u]), where di/dj are the edge
// endpoints' distance rows.
func relaxRow(ds, di, dj []float64, i, j int, w float64, n int) {
	dsi, dsj := ds[i], ds[j]
	if math.IsInf(dsi, 1) && math.IsInf(dsj, 1) {
		return
	}
	for u := 0; u < n; u++ {
		via1 := dsi + w + dj[u]
		via2 := dsj + w + di[u]
		if via1 < ds[u] {
			ds[u] = via1
		}
		if via2 < ds[u] {
			ds[u] = via2
		}
	}
}

// CostUsed returns the total towers consumed by built links.
func (t *Topology) CostUsed() float64 { return t.cost }

// Dist returns the current hybrid latency-equivalent distance between sites.
func (t *Topology) Dist(i, j int) float64 { return t.d[i][j] }

// FiberDist returns the fiber-only latency-equivalent distance.
func (t *Topology) FiberDist(i, j int) float64 { return t.fiberD[i][j] }

// stretchSum is a partial traffic-weighted stretch accumulation.
type stretchSum struct{ num, den float64 }

// stretchOver reduces Σ h_st·d[s][u]/geo_su (and Σ h_st) over all s<u pairs
// of the given distance matrix. At greedy scale the row sums fan out on the
// pool; the chunk-ordered merge keeps the float result independent of the
// worker count. Small instances (objective() runs per branch-and-bound
// node) take the plain accumulation — the gate depends only on n.
func (p *Problem) stretchOver(d [][]float64) stretchSum {
	if p.N <= apsGrain {
		var acc stretchSum
		for s := 0; s < p.N; s++ {
			acc = acc.addRow(p, d, s)
		}
		return acc
	}
	return parallel.Reduce(p.N, apsGrain, func(lo, hi int) stretchSum {
		var acc stretchSum
		for s := lo; s < hi; s++ {
			acc = acc.addRow(p, d, s)
		}
		return acc
	}, func(a, b stretchSum) stretchSum {
		return stretchSum{a.num + b.num, a.den + b.den}
	})
}

// addRow accumulates source row s of the stretch sum.
func (acc stretchSum) addRow(p *Problem, d [][]float64, s int) stretchSum {
	for u := s + 1; u < p.N; u++ {
		h := p.Traffic[s][u]
		if h == 0 {
			continue
		}
		acc.num += h * d[s][u] / p.Geodesic[s][u]
		acc.den += h
	}
	return acc
}

// MeanStretch returns the traffic-weighted mean stretch,
// Σ h_st · (D_st/d_st) / Σ h_st — the paper's objective normalised per unit
// traffic. Pairs with zero traffic are ignored.
func (t *Topology) MeanStretch() float64 {
	s := t.P.stretchOver(t.d)
	if s.den == 0 {
		return math.NaN()
	}
	return s.num / s.den
}

// objective is the un-normalised Σ h_st·D_st/d_st (what the solvers
// minimise; same argmin as MeanStretch).
func (t *Topology) objective() float64 {
	return t.P.stretchOver(t.d).num
}

// gainOf returns the objective decrease from adding link (i,j) to the
// current topology, in O(n²), without mutating state.
func (t *Topology) gainOf(i, j int) float64 {
	p := t.P
	w := p.MW[i][j]
	gain := 0.0
	d := t.d
	for s := 0; s < p.N; s++ {
		dsi, dsj := d[s][i], d[s][j]
		for u := s + 1; u < p.N; u++ {
			h := p.Traffic[s][u]
			if h == 0 {
				continue
			}
			cur := d[s][u]
			alt := math.Min(dsi+w+d[j][u], dsj+w+d[i][u])
			if alt < cur {
				gain += h * (cur - alt) / p.Geodesic[s][u]
			}
		}
	}
	return gain
}

// MeanFiberStretch returns the traffic-weighted mean stretch of the
// fiber-only baseline (no MW links) — the paper's ~1.93× reference.
func (t *Topology) MeanFiberStretch() float64 {
	s := t.P.stretchOver(t.fiberD)
	if s.den == 0 {
		return math.NaN()
	}
	return s.num / s.den
}
