// Package traffic builds the demand matrices the paper designs for and
// stresses against: the city-city population-product model (§4), the
// inter-data-center and city-to-data-center models (§6.3), weighted mixes of
// the three (§6.4), and the γ population perturbations of §5.
//
// A Matrix is symmetric with a zero diagonal; units are either the paper's
// relative weights h_st ∈ [0,1] or absolute Gbps after ScaleToAggregate.
package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cisp/internal/cities"
	"cisp/internal/units"
)

// Matrix is a symmetric demand matrix over a site list.
type Matrix [][]float64

// New returns an n×n zero matrix.
func New(n int) Matrix {
	m := make(Matrix, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	return m
}

// N returns the number of sites.
func (m Matrix) N() int { return len(m) }

// Set sets the symmetric demand between i and j.
func (m Matrix) Set(i, j int, v float64) {
	if i == j {
		return
	}
	m[i][j], m[j][i] = v, v
}

// Total returns Σ_{s<t} demand.
func (m Matrix) Total() float64 {
	sum := 0.0
	for i := range m {
		for j := i + 1; j < len(m); j++ {
			sum += m[i][j]
		}
	}
	return sum
}

// Clone returns an independent copy.
func (m Matrix) Clone() Matrix {
	c := New(len(m))
	for i := range m {
		copy(c[i], m[i])
	}
	return c
}

// Validate checks symmetry, non-negativity and a zero diagonal.
func (m Matrix) Validate() error {
	for i := range m {
		if len(m[i]) != len(m) {
			return fmt.Errorf("traffic: row %d has %d cols, want %d", i, len(m[i]), len(m))
		}
		if m[i][i] != 0 {
			return fmt.Errorf("traffic: non-zero diagonal at %d", i)
		}
		for j := range m[i] {
			if m[i][j] < 0 || math.IsNaN(m[i][j]) {
				return fmt.Errorf("traffic: invalid demand %v at (%d,%d)", m[i][j], i, j)
			}
			if m[i][j] != m[j][i] {
				return fmt.Errorf("traffic: asymmetric at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// PopulationProduct returns the paper's §4 model: h_ij proportional to the
// product of site populations, normalised so the largest entry is 1.
func PopulationProduct(cs []cities.City) Matrix {
	n := len(cs)
	m := New(n)
	maxV := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := float64(cs[i].Population) * float64(cs[j].Population)
			m.Set(i, j, v)
			if v > maxV {
				maxV = v
			}
		}
	}
	if maxV > 0 {
		for i := range m {
			for j := range m[i] {
				m[i][j] /= maxV
			}
		}
	}
	return m
}

// Gravity generalizes PopulationProduct to arbitrary per-site weights
// (active users, offered bps, revenue): h_ij = w_i · w_j, normalised so the
// largest entry is 1. Sites with zero weight contribute no demand.
func Gravity(weights []float64) Matrix {
	n := len(weights)
	m := New(n)
	maxV := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := weights[i] * weights[j]
			m.Set(i, j, v)
			if v > maxV {
				maxV = v
			}
		}
	}
	if maxV > 0 {
		for i := range m {
			for j := range m[i] {
				m[i][j] /= maxV
			}
		}
	}
	return m
}

// WeightedNearest generalizes CityToDC to arbitrary weights and sink sets:
// every site i with weights[i] > 0 sends its full weight to the
// geodesically nearest sink (ties to the lower sink index). Unlike
// CityToDC the weights are NOT normalised — callers pass absolute units
// (bps, users) and get them back — and a site that is itself a sink sends
// nothing (its demand is served locally). This is the CDN/anycast demand
// shape: each user population pulls from its closest replica.
func WeightedNearest(cs []cities.City, weights []float64, sinks []int) Matrix {
	m := New(len(cs))
	isSink := make(map[int]bool, len(sinks))
	for _, s := range sinks {
		isSink[s] = true
	}
	for i := range cs {
		if weights[i] <= 0 || isSink[i] {
			continue
		}
		best, bestD := -1, units.Meters(math.Inf(1))
		for _, s := range sinks {
			d := cs[i].Loc.DistanceTo(cs[s].Loc)
			if d < bestD || (d == bestD && s < best) {
				best, bestD = s, d
			}
		}
		if best >= 0 {
			m.Set(i, best, m[i][best]+weights[i])
		}
	}
	return m
}

// UniformPairs returns equal demand between every pair of the given site
// indices (the paper's inter-DC model: "we provision equal capacity between
// each DC-pair"), zero elsewhere, over n total sites.
func UniformPairs(n int, sites []int) Matrix {
	m := New(n)
	for a := 0; a < len(sites); a++ {
		for b := a + 1; b < len(sites); b++ {
			m.Set(sites[a], sites[b], 1)
		}
	}
	return m
}

// CityToDC returns the paper's DC-edge model: each city sends to its closest
// data center, with demand proportional to the city's population. cityIdx
// and dcIdx index into the combined site list cs.
func CityToDC(cs []cities.City, cityIdx, dcIdx []int) Matrix {
	m := New(len(cs))
	maxPop := 0
	for _, ci := range cityIdx {
		if cs[ci].Population > maxPop {
			maxPop = cs[ci].Population
		}
	}
	if maxPop == 0 {
		return m
	}
	for _, ci := range cityIdx {
		best, bestD := -1, units.Meters(math.Inf(1))
		for _, di := range dcIdx {
			if d := cs[ci].Loc.DistanceTo(cs[di].Loc); d < bestD {
				best, bestD = di, d
			}
		}
		if best >= 0 {
			m.Set(ci, best, float64(cs[ci].Population)/float64(maxPop))
		}
	}
	return m
}

// Mix returns Σ w_k · normalised(m_k): each component is first scaled to
// unit total demand so the weights express the §6.4 traffic proportions
// (e.g. 4:3:3), then combined. Panics on length mismatch.
func Mix(weights []float64, ms ...Matrix) Matrix {
	if len(weights) != len(ms) {
		panic("traffic: Mix weights/matrices length mismatch")
	}
	if len(ms) == 0 {
		return New(0)
	}
	n := ms[0].N()
	out := New(n)
	for k, m := range ms {
		tot := m.Total()
		if tot == 0 {
			continue
		}
		f := weights[k] / tot
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				out[i][j] += m[i][j] * f
				out[j][i] = out[i][j]
			}
		}
	}
	return out
}

// ScaleToAggregate scales m so Σ_{s<t} equals the aggregate demand,
// returning a copy. Entries remain in the matrix's Gbps convention —
// only the target total is stated in explicit rate units.
func ScaleToAggregate(m Matrix, aggregate units.BitsPerSecond) Matrix {
	tot := m.Total()
	out := m.Clone()
	if tot == 0 {
		return out
	}
	f := aggregate.Gbps() / tot
	for i := range out {
		for j := range out[i] {
			out[i][j] *= f
		}
	}
	return out
}

// PairFlows is one site pair's share of a concurrent-flow population.
type PairFlows struct {
	I, J  int
	Count int
}

// FlowCounts apportions total concurrent flows across the positive entries
// of m in proportion to demand (Apportion), so the counts sum exactly to
// total when at least one entry is positive. Pairs are emitted in (i, j)
// row-major order with i < j; zero-count pairs are dropped. This is how a
// §6.4 traffic mix becomes the flow population of a packet- or fluid-mode
// replay: each pair's flow count stands in for its user population.
// Deterministic in m and total.
func FlowCounts(m Matrix, total int) []PairFlows {
	var pairs []PairFlows
	var weights []float64
	for i := 0; i < len(m); i++ {
		for j := i + 1; j < len(m); j++ {
			if m[i][j] > 0 {
				pairs = append(pairs, PairFlows{I: i, J: j})
				weights = append(weights, m[i][j])
			}
		}
	}
	var out []PairFlows
	for k, n := range Apportion(total, weights) {
		if n > 0 {
			pairs[k].Count = n
			out = append(out, pairs[k])
		}
	}
	return out
}

// Apportion splits total units across parts in proportion to weights by
// largest-remainder rounding: each part gets ⌊total·w/Σw⌋, and the units
// left over go one each to the largest fractional parts, lower index
// first on ties, so the counts sum exactly to total. Non-positive weights
// get nothing; with total ≤ 0 or no positive weight every count is zero.
// This is the one rounding rule under every flow population: the pairs of
// a demand matrix (FlowCounts), the applications of a workload mix and
// the paths of a TE split.
func Apportion(total int, weights []float64) []int {
	counts := make([]int, len(weights))
	sum := 0.0
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	if total <= 0 || sum <= 0 {
		return counts
	}
	frac := make([]float64, len(weights))
	var order []int
	left := total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		quota := float64(total) * w / sum
		counts[i] = int(math.Floor(quota))
		frac[i] = quota - float64(counts[i])
		left -= counts[i]
		order = append(order, i)
	}
	sort.SliceStable(order, func(a, b int) bool { return frac[order[a]] > frac[order[b]] })
	for k := 0; k < left && k < len(order); k++ {
		counts[order[k]]++
	}
	return counts
}

// Hotspot returns a copy of m with nPairs of its positive entries scaled by
// factor: a per-pair spike profile modelling localized surges (a flash
// crowd, a failure shifting load) the backbone was not designed for. Spiked
// pairs are drawn uniformly without replacement from the positive entries,
// deterministic in seed; if fewer than nPairs entries are positive, all of
// them spike.
func Hotspot(m Matrix, nPairs int, factor float64, seed int64) Matrix {
	out := m.Clone()
	if nPairs <= 0 || factor == 1 {
		return out
	}
	var pairs [][2]int
	for i := 0; i < len(m); i++ {
		for j := i + 1; j < len(m); j++ {
			if m[i][j] > 0 {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
	if nPairs > len(pairs) {
		nPairs = len(pairs)
	}
	for _, p := range pairs[:nPairs] {
		out.Set(p[0], p[1], m[p[0]][p[1]]*factor)
	}
	return out
}

// PerturbPopulations applies §5's population perturbation: each city's
// population is re-weighted by an independent factor drawn uniformly from
// [1-γ, 1+γ]. Deterministic in seed.
func PerturbPopulations(cs []cities.City, gamma float64, seed int64) []cities.City {
	rng := rand.New(rand.NewSource(seed))
	out := make([]cities.City, len(cs))
	copy(out, cs)
	for i := range out {
		f := 1 - gamma + 2*gamma*rng.Float64()
		out[i].Population = int(float64(out[i].Population) * f)
		if out[i].Population < 0 {
			out[i].Population = 0
		}
	}
	return out
}
