package netsim

import (
	"fmt"
	"math"
	"sort"

	"cisp/internal/traffic"
	"cisp/internal/units"
)

// TopoLink describes one duplex link of a simulation topology.
type TopoLink struct {
	A, B      int
	RateBps   units.BitsPerSecond
	PropDelay units.Seconds
	QueueCap  int
}

// LinkIndex resolves node pairs to directed link IDs: the one place the
// engines, te and resilience map a node path onto a link list. IDs count
// up in insertion order, so over a duplex list (NewLinkIndex) link i's
// A→B direction is 2i and its B→A direction 2i+1. An endpoint outside
// [0, n) and a repeated directed pair are refused, so a node path names
// its links unambiguously. Lookups scan the source node's out-list; no
// hashing.
type LinkIndex struct {
	out [][]int32 // per node, outgoing directed IDs in insertion order
	to  []int32   // per directed ID, its head node
}

// NewLinkIndex indexes both directions of every link of a duplex list over
// nodes [0, n).
func NewLinkIndex(n int, links []TopoLink) (*LinkIndex, error) {
	x := &LinkIndex{out: make([][]int32, n), to: make([]int32, 0, 2*len(links))}
	for _, l := range links {
		if err := x.add(l.A, l.B); err != nil {
			return nil, err
		}
		if err := x.add(l.B, l.A); err != nil {
			return nil, err
		}
	}
	return x, nil
}

// add indexes the directed link from→to under the next ID.
func (x *LinkIndex) add(from, to int) error {
	if n := len(x.out); from < 0 || from >= n || to < 0 || to >= n {
		return fmt.Errorf("netsim: link %d->%d outside node range [0,%d)", from, to, n)
	}
	if _, ok := x.Lookup(from, to); ok {
		return fmt.Errorf("netsim: repeated directed link %d->%d (parallel capacity needs a transit node)", from, to)
	}
	x.out[from] = append(x.out[from], int32(len(x.to)))
	x.to = append(x.to, int32(to))
	return nil
}

// N returns the number of nodes.
func (x *LinkIndex) N() int { return len(x.out) }

// Lookup returns the ID of the directed link from→to, and false when there
// is none or either node is out of range.
//
//cisp:hotpath
func (x *LinkIndex) Lookup(from, to int) (int32, bool) {
	if from < 0 || from >= len(x.out) {
		return 0, false
	}
	for _, id := range x.out[from] {
		if int(x.to[id]) == to {
			return id, true
		}
	}
	return 0, false
}

// Out returns the IDs of from's outgoing links in insertion order. The
// slice is the index's own; callers must not modify it.
//
//cisp:hotpath
func (x *LinkIndex) Out(from int) []int32 { return x.out[from] }

// Commodity is one routed demand.
type Commodity struct {
	Flow     int
	Src, Dst int
	Demand   units.BitsPerSecond // used by utilization-aware schemes

	// Count is how many concurrent flows the Scenario driver runs on this
	// commodity's path (0 and 1 both mean one). Routing ignores it.
	Count int

	// FlowBytes overrides Scenario.FlowBytes for this commodity's flows
	// when > 0 — how a workload mixes thin gaming flows with bulk media
	// transfers in one replay. Both engines honor it identically.
	FlowBytes int
}

// DemandCommodities turns a demand matrix (any consistent units — only
// the proportions matter) into the commodity list of a Scenario replay:
// totalFlows concurrent flows apportioned across the positive pairs in
// proportion to demand (traffic.FlowCounts), each of flowBytes payload
// arriving inside a window of `window` seconds. Demand is the load the
// replay then actually offers — Count · flowBytes · 8 / window — so a TE
// planner (and min-max-utilization routing) optimises against the very
// traffic the simulation injects. Flow IDs run from first over ALL
// positive pairs in row-major order, whatever totalFlows is, so IDs are
// stable between a clamped packet replay and a full-scale fluid replay
// and one TE solution serves both. last is the final ID numbered (first-1
// when no pair is positive), so the next matrix can start at last+1.
func DemandCommodities(demand traffic.Matrix, totalFlows, flowBytes int, window units.Seconds, first int) (comms []Commodity, last int) {
	pairs := traffic.FlowCounts(demand, totalFlows)
	last = first - 1
	for i := 0; i < demand.N(); i++ {
		for j := i + 1; j < demand.N(); j++ {
			if demand[i][j] <= 0 {
				continue
			}
			last++
			if len(pairs) == 0 || pairs[0].I != i || pairs[0].J != j {
				continue // no flows on this pair
			}
			n := pairs[0].Count
			pairs = pairs[1:]
			comms = append(comms, Commodity{
				Flow: last, Src: i, Dst: j,
				Demand:    units.Bytes(float64(n) * float64(flowBytes)).Per(window),
				Count:     n,
				FlowBytes: flowBytes,
			})
		}
	}
	return comms, last
}

// Scheme selects a routing algorithm, mirroring §5: ns-3's default shortest
// path, minimise-max-link-utilization (common ISP traffic engineering), and
// throughput-optimal (widest-path) routing.
type Scheme int

// Routing schemes.
const (
	ShortestPath Scheme = iota
	MinMaxUtilization
	ThroughputOptimal
)

func (s Scheme) String() string {
	switch s {
	case ShortestPath:
		return "shortest-path"
	case MinMaxUtilization:
		return "min-max-utilization"
	case ThroughputOptimal:
		return "throughput-optimal"
	}
	return "unknown"
}

// BuildTopology adds every duplex link to the network.
func BuildTopology(nw *Network, links []TopoLink) {
	for _, l := range links {
		nw.AddDuplex(l.A, l.B, float64(l.RateBps), float64(l.PropDelay), l.QueueCap)
	}
}

// SplitSumTol is the tolerance ValidateSplits allows on each commodity's
// fraction sum: TE solutions drop sub-1e-6 fractions path by path, so a
// K-way split can drift a few parts per million from exactly 1.
const SplitSumTol = 1e-5

// ValidateSplits checks a split set against the topology before it is
// installed or published: every listed commodity must exist, each of its
// paths must run Src→Dst over topology links (either direction of a duplex
// TopoLink), every fraction must be positive and finite, and the fractions
// must sum to 1 within SplitSumTol. This is the wire-format gate the
// control-plane daemon runs before swapping a snapshot in, and the same
// contract Scenario.Run assumes of its Splits field. Commodities are
// checked in flow order, and the first failure is returned.
func ValidateSplits(n int, links []TopoLink, comms []Commodity, splits map[int][]SplitPath) error {
	r, err := NewSplitRules(n, links, comms)
	if err != nil {
		return err
	}
	flows := make([]int, 0, len(splits))
	for flow := range splits {
		flows = append(flows, flow)
	}
	sort.Ints(flows)
	for _, flow := range flows {
		if err := r.Check(flow, splits[flow]); err != nil {
			return err
		}
	}
	return nil
}

// SplitRules is ValidateSplits prepared for one topology and commodity
// list, for a caller that checks one commodity's split set at a time
// against inputs that do not change.
type SplitRules struct {
	index  *LinkIndex
	byFlow map[int]Commodity
}

// NewSplitRules indexes the topology's links and the commodities by flow.
// It refuses a topology LinkIndex refuses.
func NewSplitRules(n int, links []TopoLink, comms []Commodity) (*SplitRules, error) {
	index, err := NewLinkIndex(n, links)
	if err != nil {
		return nil, err
	}
	r := &SplitRules{index: index, byFlow: make(map[int]Commodity, len(comms))}
	for _, c := range comms {
		r.byFlow[c.Flow] = c
	}
	return r, nil
}

// Check applies ValidateSplits' rules to one commodity's split set.
func (r *SplitRules) Check(flow int, sps []SplitPath) error {
	c, ok := r.byFlow[flow]
	if !ok {
		return fmt.Errorf("netsim: splits for unknown commodity %d", flow)
	}
	if len(sps) == 0 {
		return fmt.Errorf("netsim: commodity %d has an empty split set", flow)
	}
	sum := 0.0
	for _, sp := range sps {
		if !(sp.Frac > 0) || math.IsInf(sp.Frac, 0) {
			return fmt.Errorf("netsim: commodity %d has non-positive or non-finite fraction %v", flow, sp.Frac)
		}
		sum += sp.Frac
		if len(sp.Path) < 2 {
			return fmt.Errorf("netsim: commodity %d has a degenerate path %v", flow, sp.Path)
		}
		if sp.Path[0] != c.Src || sp.Path[len(sp.Path)-1] != c.Dst {
			return fmt.Errorf("netsim: commodity %d path %v does not run %d→%d", flow, sp.Path, c.Src, c.Dst)
		}
		for i := 0; i+1 < len(sp.Path); i++ {
			a, b := sp.Path[i], sp.Path[i+1]
			if n := r.index.N(); a < 0 || a >= n || b < 0 || b >= n {
				return fmt.Errorf("netsim: commodity %d path hop %d→%d outside node range [0,%d)", flow, a, b, n)
			}
			if _, ok := r.index.Lookup(a, b); !ok {
				return fmt.Errorf("netsim: commodity %d path hop %d→%d is not a topology link", flow, a, b)
			}
		}
	}
	if math.Abs(sum-1) > SplitSumTol {
		return fmt.Errorf("netsim: commodity %d fractions sum to %.9f, want 1±%g", flow, sum, SplitSumTol)
	}
	return nil
}

// InstallRoutes computes a path per commodity under the scheme and installs
// forwarding state. It returns the chosen paths keyed by flow ID.
// Commodities are processed in decreasing demand for the utilization-aware
// schemes, which route sequentially against the residual network.
func InstallRoutes(nw *Network, links []TopoLink, comms []Commodity, scheme Scheme) map[int][]int {
	paths := ComputeRoutes(nw.N(), links, comms, scheme)
	for flow, path := range paths {
		nw.SetFlowPath(flow, path)
	}
	return paths
}

// ComputeRoutes is the pure routing core behind InstallRoutes: it computes
// a path per commodity under the scheme without touching a Network, so the
// packet and fluid engines can share identical paths. The returned map is
// keyed by flow ID; unroutable commodities are omitted.
func ComputeRoutes(n int, links []TopoLink, comms []Commodity, scheme Scheme) map[int][]int {
	adj := make([][]halfLink, n)
	for _, l := range links {
		fw, bw := new(float64), new(float64)
		adj[l.A] = append(adj[l.A], halfLink{to: l.B, delay: float64(l.PropDelay), cap: float64(l.RateBps), load: fw})
		adj[l.B] = append(adj[l.B], halfLink{to: l.A, delay: float64(l.PropDelay), cap: float64(l.RateBps), load: bw})
	}
	if scheme == ShortestPath {
		return shortestRoutes(adj, comms)
	}

	order := make([]Commodity, len(comms))
	copy(order, comms)
	sort.Slice(order, func(i, j int) bool { return order[i].Demand > order[j].Demand })

	paths := make(map[int][]int, len(comms))
	for _, c := range order {
		var path []int
		switch scheme {
		case MinMaxUtilization:
			path = minimaxPath(adj, c.Src, c.Dst, func(h halfLink) float64 {
				return (*h.load + float64(c.Demand)) / h.cap
			})
		case ThroughputOptimal:
			path = minimaxPath(adj, c.Src, c.Dst, func(h halfLink) float64 {
				// Maximise residual capacity == minimise its negation.
				return -(h.cap - *h.load - float64(c.Demand))
			})
		}
		if path == nil {
			continue
		}
		paths[c.Flow] = path
		// Account the demand on each traversed half-link.
		for i := 0; i+1 < len(path); i++ {
			for k := range adj[path[i]] {
				if adj[path[i]][k].to == path[i+1] {
					*adj[path[i]][k].load += float64(c.Demand)
					break
				}
			}
		}
	}
	return paths
}

// halfLink is one direction of a topology link with a shared load counter.
type halfLink struct {
	to    int
	delay float64
	cap   float64
	load  *float64
}

// shortestRoutes gives every commodity its minimum propagation-delay
// path. It grows one delay tree per source and unwinds each destination
// from it: relaxation is strict and delays are non-negative, so a node's
// predecessor never changes once it settles, and the tree holds exactly
// the path a search stopped at that destination would return.
func shortestRoutes(adj [][]halfLink, comms []Commodity) map[int][]int {
	trees := make([][]int, len(adj)) // per source, grown on first use
	paths := make(map[int][]int, len(comms))
	for _, c := range comms {
		if trees[c.Src] == nil {
			trees[c.Src] = delayTree(adj, c.Src)
		}
		if path := unwind(trees[c.Src], c.Src, c.Dst); path != nil {
			paths[c.Flow] = path
		}
	}
	return paths
}

// delayTree runs Dijkstra on propagation delay from src to exhaustion and
// returns each node's predecessor (-1 for src and unreached nodes). Ties
// settle the lowest node index first.
func delayTree(adj [][]halfLink, src int) []int {
	n := len(adj)
	dist := make([]float64, n)
	prev := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	for {
		u, best := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < best {
				u, best = v, dist[v]
			}
		}
		if u < 0 {
			return prev
		}
		done[u] = true
		for _, h := range adj[u] {
			if nd := dist[u] + h.delay; nd < dist[h.to] {
				dist[h.to] = nd
				prev[h.to] = u
			}
		}
	}
}

// minimaxPath finds the path minimising the maximum of cost(halfLink) over
// its links, breaking ties by total propagation delay.
func minimaxPath(adj [][]halfLink, src, dst int, cost func(halfLink) float64) []int {
	n := len(adj)
	bottleneck := make([]float64, n)
	delay := make([]float64, n)
	prev := make([]int, n)
	done := make([]bool, n)
	for i := range bottleneck {
		bottleneck[i] = math.Inf(1)
		delay[i] = math.Inf(1)
		prev[i] = -1
	}
	bottleneck[src] = math.Inf(-1)
	delay[src] = 0
	for {
		u := -1
		bb, bd := math.Inf(1), math.Inf(1)
		for v := 0; v < n; v++ {
			if done[v] {
				continue
			}
			if bottleneck[v] < bb || (bottleneck[v] == bb && delay[v] < bd) {
				u, bb, bd = v, bottleneck[v], delay[v]
			}
		}
		if u < 0 || math.IsInf(bottleneck[u], 1) || u == dst {
			break
		}
		done[u] = true
		for _, h := range adj[u] {
			nb := math.Max(bottleneck[u], cost(h))
			ndel := delay[u] + h.delay
			if nb < bottleneck[h.to] || (nb == bottleneck[h.to] && ndel < delay[h.to]) {
				bottleneck[h.to] = nb
				delay[h.to] = ndel
				prev[h.to] = u
			}
		}
	}
	if math.IsInf(bottleneck[dst], 1) {
		return nil
	}
	return unwind(prev, src, dst)
}

func unwind(prev []int, src, dst int) []int {
	var rev []int
	for v := dst; v != -1; v = prev[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
