package netsim

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"cisp/internal/traffic"
	"cisp/internal/units"
	"cisp/internal/xheap"
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

// Nodes returns the node path that leaves src along the directed IDs.
func (x *LinkIndex) Nodes(src int, ids []int32) []int {
	nodes := append(make([]int, 0, len(ids)+1), src)
	for _, id := range ids {
		nodes = append(nodes, int(x.to[id]))
	}
	return nodes
}

// SplitLoad returns each directed link's offered load under the splits:
// demand × fraction, summed commodity by commodity in comms order, then
// split by split, then hop by hop. A hop that is not a link is an error.
func (x *LinkIndex) SplitLoad(comms []Commodity, splits map[int][]SplitPath) ([]float64, error) {
	load := make([]float64, len(x.to))
	for _, c := range comms {
		for _, sp := range splits[c.Flow] {
			for i := 0; i+1 < len(sp.Path); i++ {
				id, ok := x.Lookup(sp.Path[i], sp.Path[i+1])
				if !ok {
					return nil, fmt.Errorf("netsim: commodity %d split hop %d->%d is not a link", c.Flow, sp.Path[i], sp.Path[i+1])
				}
				load[id] += float64(c.Demand) * sp.Frac
			}
		}
	}
	return load, nil
}

// MaxUtilization returns the largest load over rate among the directed
// links of a duplex list whose rate is positive, 0 when none carries any.
// load holds one entry per directed ID, as SplitLoad returns it over the
// list's index; a load of any other length panics.
func MaxUtilization(links []TopoLink, load []float64) units.Utilization {
	if len(load) != 2*len(links) {
		panic(fmt.Sprintf("netsim: %d directed loads for %d duplex links", len(load), len(links)))
	}
	mlu := 0.0
	for id, v := range load {
		if c := float64(links[id>>1].RateBps); c > 0 {
			if u := v / c; u > mlu {
				mlu = u
			}
		}
	}
	return units.Utilization(mlu)
}

// DelaySearch is the one least-delay search on a simulation topology (te's
// Yen spurs, shortest-path routing, the workload RTTs, the availability
// rescues): a heap Dijkstra over a duplex list and its LinkIndex, reused
// across runs. It never rides a link whose rate is ≤ 0, nor a banned link
// or node. Delays are nonnegative, so nodes settle in order of (distance,
// index), exactly as a scan for the least distance, lowest index on ties,
// picks them; relaxation is strict, so every path is the scan's.
type DelaySearch struct {
	index   *LinkIndex
	links   []TopoLink
	src     int // the last run's source
	dist    []float64
	prevE   []int32
	done    []bool
	edgeBan []bool
	nodeBan []bool
	heap    []distNode // one entry per improving relaxation, plus the source
	path    []int32    // the last Path's result
}

// distNode is a search frontier entry. A node's entries carry strictly
// decreasing distances, so no two keys tie and the heap pops in one order.
type distNode struct {
	d float64
	v int32
}

func distLess(a, b distNode) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.v < b.v
}

// NewDelaySearch prepares a search over links, the duplex list index was
// built from. It reads the links' rates and delays at every run, so a
// caller that changes a rate in place between runs searches the new
// topology.
func NewDelaySearch(index *LinkIndex, links []TopoLink) *DelaySearch {
	n := index.N()
	return &DelaySearch{
		index:   index,
		links:   links,
		dist:    make([]float64, n),
		prevE:   make([]int32, n),
		done:    make([]bool, n),
		edgeBan: make([]bool, 2*len(links)),
		nodeBan: make([]bool, n),
		heap:    make([]distNode, 0, 2*len(links)+1),
		path:    make([]int32, n),
	}
}

// BanLink bars directed link id from later runs; false lifts the ban.
func (s *DelaySearch) BanLink(id int32, banned bool) { s.edgeBan[id] = banned }

// BanNode bars node v from later runs; false lifts the ban.
func (s *DelaySearch) BanNode(v int, banned bool) { s.nodeBan[v] = banned }

// Run returns the least-delay path src→dst as directed IDs and its delay,
// or nil when dst is unreachable or a path to it would be longer than
// maxDelay after a root prefix of delay rootD. It stops once rootD + d >
// maxDelay for the settled distance d: dst is no nearer than d, and float
// addition is monotone. The path aliases the search until its next use.
func (s *DelaySearch) Run(src, dst int, rootD, maxDelay float64) ([]int32, float64) {
	if !s.grow(src, dst, rootD, maxDelay) || math.IsInf(s.dist[dst], 1) {
		return nil, 0
	}
	return s.Path(dst), s.dist[dst]
}

// EachSource runs the search to exhaustion, with no delay cap, once per
// distinct source among comms, sources ascending. While a source's tree is
// current it calls visit with the position in comms of each commodity from
// that source; Dist and Path then answer for every node.
func (s *DelaySearch) EachSource(comms []Commodity, visit func(i int)) {
	bySrc := make([][]int, s.index.N())
	for i, c := range comms {
		bySrc[c.Src] = append(bySrc[c.Src], i)
	}
	for src, is := range bySrc {
		if len(is) > 0 {
			s.grow(src, -1, 0, math.Inf(1))
		}
		for _, i := range is {
			visit(i)
		}
	}
}

// Dist returns v's least delay from the current tree's source, +Inf when
// v is unreachable.
func (s *DelaySearch) Dist(v int) float64 { return s.dist[v] }

// Path returns the least-delay path from the last run's source to v as
// directed IDs, or nil when v is unreachable: for any node inside
// EachSource, for the destination after Run. The path aliases the search
// until its next use.
func (s *DelaySearch) Path(v int) []int32 {
	if math.IsInf(s.dist[v], 1) {
		return nil
	}
	// Link i of a duplex list has directions 2i and 2i+1, so the head of
	// id^1 is id's tail.
	path := s.path[:0]
	for u := v; u != s.src; u = int(s.index.to[s.prevE[u]^1]) {
		path = append(path, s.prevE[u])
	}
	slices.Reverse(path)
	return path
}

// grow settles nodes from src until dst settles (dst < 0: until none is
// left) and reports false when the delay cap stops it first.
func (s *DelaySearch) grow(src, dst int, rootD, maxDelay float64) bool {
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
		s.prevE[i] = -1
		s.done[i] = false
	}
	s.src = src
	s.dist[src] = 0
	h := s.heap[:0]
	if !s.nodeBan[src] {
		h = append(h, distNode{0, int32(src)})
	}
	for len(h) > 0 {
		top := xheap.Pop(&h, distLess)
		u := int(top.v)
		if s.done[u] {
			continue // superseded by a shorter entry for u, settled earlier
		}
		if rootD+top.d > maxDelay {
			return false
		}
		if u == dst {
			break
		}
		s.done[u] = true
		for _, id := range s.index.Out(u) {
			to, l := int(s.index.to[id]), &s.links[id>>1]
			if s.edgeBan[id] || s.nodeBan[to] || l.RateBps <= 0 {
				continue
			}
			if nd := top.d + float64(l.PropDelay); nd < s.dist[to] {
				s.dist[to] = nd
				s.prevE[to] = id
				xheap.Push(&h, distNode{nd, int32(to)}, distLess)
			}
		}
	}
	return true
}

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

// Index returns the link index the rules check hops against.
func (r *SplitRules) Index() *LinkIndex { return r.index }

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
// Commodities are processed in decreasing demand, ties in comms order, for
// the utilization-aware schemes, which route sequentially against the
// residual network.
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
// keyed by flow ID; unroutable commodities are omitted. Panics on a
// topology NewLinkIndex refuses, as both engines do.
func ComputeRoutes(n int, links []TopoLink, comms []Commodity, scheme Scheme) map[int][]int {
	index, err := NewLinkIndex(n, links)
	if err != nil {
		panic(err.Error())
	}
	if scheme == ShortestPath {
		return shortestRoutes(index, links, comms)
	}

	order := slices.Clone(comms)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Demand > order[j].Demand })

	load := make([]float64, 2*len(links)) // routed demand per directed ID
	paths := make(map[int][]int, len(comms))
	for _, c := range order {
		var path []int
		switch scheme {
		case MinMaxUtilization:
			path = minimaxPath(index, links, c.Src, c.Dst, func(id int32) float64 {
				return (load[id] + float64(c.Demand)) / float64(links[id>>1].RateBps)
			})
		case ThroughputOptimal:
			path = minimaxPath(index, links, c.Src, c.Dst, func(id int32) float64 {
				// Maximise residual capacity == minimise its negation.
				return -(float64(links[id>>1].RateBps) - load[id] - float64(c.Demand))
			})
		}
		if path == nil {
			continue
		}
		paths[c.Flow] = path
		// Account the demand on each traversed direction.
		for i := 0; i+1 < len(path); i++ {
			id, _ := index.Lookup(path[i], path[i+1])
			load[id] += float64(c.Demand)
		}
	}
	return paths
}

// shortestRoutes gives every commodity its minimum propagation-delay
// path: one DelaySearch tree per source, each destination unwound from
// it. Relaxation is strict and delays are non-negative, so a node's
// predecessor never changes once it settles, and the tree holds exactly
// the path a search stopped at that destination would return.
func shortestRoutes(index *LinkIndex, links []TopoLink, comms []Commodity) map[int][]int {
	s := NewDelaySearch(index, links)
	found := make([][]int, len(comms))
	s.EachSource(comms, func(i int) {
		if ids := s.Path(comms[i].Dst); ids != nil {
			found[i] = index.Nodes(comms[i].Src, ids)
		}
	})
	paths := make(map[int][]int, len(comms))
	for i, c := range comms {
		if found[i] != nil {
			paths[c.Flow] = found[i]
		}
	}
	return paths
}

// minimaxPath finds the path minimising the maximum of cost over its
// directed links, breaking ties by total propagation delay.
func minimaxPath(index *LinkIndex, links []TopoLink, src, dst int, cost func(id int32) float64) []int {
	n := index.N()
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
		for _, id := range index.Out(u) {
			to := int(index.to[id])
			nb := math.Max(bottleneck[u], cost(id))
			ndel := delay[u] + float64(links[id>>1].PropDelay)
			if nb < bottleneck[to] || (nb == bottleneck[to] && ndel < delay[to]) {
				bottleneck[to] = nb
				delay[to] = ndel
				prev[to] = u
			}
		}
	}
	if math.IsInf(bottleneck[dst], 1) {
		return nil
	}
	path := []int{dst}
	for v := dst; v != src; v = prev[v] {
		path = append(path, prev[v])
	}
	slices.Reverse(path)
	return path
}
