package te

import (
	"fmt"
	"math"
	"slices"

	"cisp/internal/netsim"
	"cisp/internal/parallel"
	"cisp/internal/xheap"
)

// edge is one directed link of the TE graph.
type edge struct {
	from, to int
	capBps   float64 // 0 = link down (excluded from path search)
	delay    float64 // propagation delay, seconds
}

// graph is the directed TE topology: two edges per duplex TopoLink, edge
// IDs in the link index's numbering (link i's A→B edge is 2i, its B→A edge
// 2i+1). The index is the graph's adjacency.
type graph struct {
	n     int
	edges []edge
	index *netsim.LinkIndex
}

// buildGraph converts the duplex simulation topology into the directed TE
// graph. A topology netsim.LinkIndex refuses is rejected: candidate paths
// are node sequences (that is what netsim installs), so parallel directed
// edges would be ambiguous, and parallel capacity must be expressed
// through distinct nodes (see experiments.DesignedTETopology's fiber
// midpoints). A NaN, infinite or negative rate is rejected, as
// UpdateCapacities rejects one.
func buildGraph(n int, links []netsim.TopoLink) (*graph, error) {
	index, err := netsim.NewLinkIndex(n, links)
	if err != nil {
		return nil, fmt.Errorf("te: %w", err)
	}
	g := &graph{n: n, edges: make([]edge, 0, 2*len(links)), index: index}
	for i, l := range links {
		r, d := float64(l.RateBps), float64(l.PropDelay)
		if !solvable(r) {
			return nil, fmt.Errorf("te: link %d (%d-%d) has rate %v", i, l.A, l.B, r)
		}
		g.edges = append(g.edges, edge{from: l.A, to: l.B, capBps: r, delay: d}, edge{from: l.B, to: l.A, capBps: r, delay: d})
	}
	return g, nil
}

// Path is one candidate forwarding path of a commodity.
type Path struct {
	Nodes []int
	Delay float64 // end-to-end propagation delay, seconds
	edges []int32
}

func (g *graph) pathFromEdges(src int, eids []int32) Path {
	p := Path{Nodes: make([]int, 0, len(eids)+1), edges: eids}
	p.Nodes = append(p.Nodes, src)
	for _, e := range eids {
		p.Delay += g.edges[e].delay
		p.Nodes = append(p.Nodes, g.edges[e].to)
	}
	return p
}

// dijkstraScratch is one worker's minimum-delay search state for yen,
// sized once per graph and reused across searches. Banned edges and nodes
// and edges with zero capacity are skipped.
type dijkstraScratch struct {
	dist    []float64
	prevE   []int32
	done    []bool
	edgeBan []bool
	nodeBan []bool
	heap    []distNode // one entry per improving relaxation, plus the source
	path    []int32    // the last search's path
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

func newScratch(g *graph) *dijkstraScratch {
	return &dijkstraScratch{
		dist:    make([]float64, g.n),
		prevE:   make([]int32, g.n),
		done:    make([]bool, g.n),
		edgeBan: make([]bool, len(g.edges)),
		nodeBan: make([]bool, g.n),
		heap:    make([]distNode, 0, len(g.edges)+1),
		path:    make([]int32, g.n),
	}
}

// run returns the minimum-delay path src→dst as edge IDs and its delay, or
// nil when dst is unreachable or when a path reaching dst would be longer
// than maxDelay after a root prefix of delay rootD. The path aliases the
// scratch and is valid until the next run.
//
// Delays are nonnegative, so nodes settle in order of (distance, index):
// exactly the node a scan for the least distance, lowest index on ties,
// would pick at each step. Every prevE, and so every path, is the scan's.
// The search stops once rootD + d > maxDelay for the settled distance d:
// dst is no nearer than d, and float addition is monotone, so its path
// would break the cap too.
func (s *dijkstraScratch) run(g *graph, src, dst int, rootD, maxDelay float64) ([]int32, float64) {
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
		s.prevE[i] = -1
		s.done[i] = false
	}
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
			return nil, 0
		}
		if u == dst {
			break
		}
		s.done[u] = true
		for _, ei := range g.index.Out(u) {
			e := &g.edges[ei]
			if s.edgeBan[ei] || s.nodeBan[e.to] || e.capBps <= 0 {
				continue
			}
			if nd := top.d + e.delay; nd < s.dist[e.to] {
				s.dist[e.to] = nd
				s.prevE[e.to] = ei
				xheap.Push(&h, distNode{nd, int32(e.to)}, distLess)
			}
		}
	}
	if math.IsInf(s.dist[dst], 1) {
		return nil, 0
	}
	hops := 0
	for v := dst; v != src; v = g.edges[s.prevE[v]].from {
		hops++
	}
	path := s.path[:hops]
	for v, i := dst, hops-1; v != src; i-- {
		path[i] = s.prevE[v]
		v = g.edges[path[i]].from
	}
	return path, s.dist[dst]
}

// hasPath reports whether some path in ps is root followed by spur.
func hasPath(ps []Path, root, spur []int32) bool {
	for _, p := range ps {
		if len(p.edges) == len(root)+len(spur) &&
			slices.Equal(p.edges[:len(root)], root) && slices.Equal(p.edges[len(root):], spur) {
			return true
		}
	}
	return false
}

// yen enumerates up to k loopless minimum-delay paths src→dst (Yen's
// algorithm) and drops any whose delay exceeds stretch × the shortest
// path's delay — the latency-diversity cap that keeps every TE split inside
// the paper's stretch budget. Each spur search stops as soon as it can
// only find a deviation beyond that cap.
func yen(g *graph, scratch *dijkstraScratch, src, dst, k int, stretch float64) []Path {
	bestE, bestD := scratch.run(g, src, dst, 0, math.Inf(1))
	if bestE == nil {
		return nil
	}
	maxDelay := bestD * stretch
	A := []Path{g.pathFromEdges(src, slices.Clone(bestE))}
	var B []Path
	for len(A) < k {
		prev := A[len(A)-1]
		rootD := 0.0 // delay of prev's first i edges, summed in path order
		for i := 0; i < len(prev.edges); i++ {
			spur, root := prev.Nodes[i], prev.edges[:i]
			// Ban the i-th edge of every accepted path sharing the root
			// prefix, and every root node before the spur, then search for
			// a deviation.
			for _, p := range A {
				if len(p.edges) > i && slices.Equal(p.edges[:i], root) {
					scratch.edgeBan[p.edges[i]] = true
				}
			}
			for _, v := range prev.Nodes[:i] {
				scratch.nodeBan[v] = true
			}
			spurE, _ := scratch.run(g, spur, dst, rootD, maxDelay)
			for _, p := range A {
				if len(p.edges) > i && slices.Equal(p.edges[:i], root) {
					scratch.edgeBan[p.edges[i]] = false
				}
			}
			for _, v := range prev.Nodes[:i] {
				scratch.nodeBan[v] = false
			}
			rootD += g.edges[prev.edges[i]].delay
			if spurE == nil || hasPath(A, root, spurE) || hasPath(B, root, spurE) {
				continue
			}
			full := make([]int32, 0, i+len(spurE))
			full = append(full, root...)
			full = append(full, spurE...)
			B = append(B, g.pathFromEdges(src, full))
		}
		if len(B) == 0 {
			break
		}
		// Pop the minimum-delay candidate (ties: fewer hops, then
		// lexicographic node order — fully deterministic).
		bi := 0
		for j := 1; j < len(B); j++ {
			if pathLess(&B[j], &B[bi]) {
				bi = j
			}
		}
		A = append(A, B[bi])
		B = append(B[:bi], B[bi+1:]...)
	}
	return A
}

func pathLess(a, b *Path) bool {
	if a.Delay != b.Delay {
		return a.Delay < b.Delay
	}
	if len(a.Nodes) != len(b.Nodes) {
		return len(a.Nodes) < len(b.Nodes)
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return a.Nodes[i] < b.Nodes[i]
		}
	}
	return false
}

// enumerate finds each commodity's candidate paths, fanned out over the
// shared worker pool: one Yen run per commodity, one scratch per chunk.
// Results are positionally stable, and yen restores every ban it sets and
// run resets the rest, so neither the fan-out nor the chunking can change
// a path.
func enumerate(g *graph, comms []netsim.Commodity, cfg Config) [][]Path {
	out := make([][]Path, len(comms))
	parallel.For(len(comms), 1, func(lo, hi int) {
		scratch := newScratch(g)
		for i := lo; i < hi; i++ {
			out[i] = yen(g, scratch, comms[i].Src, comms[i].Dst, cfg.K, cfg.Stretch)
		}
	})
	return out
}

// Candidates enumerates every commodity's latency-bounded candidate paths
// over the duplex topology — the controller's internal enumeration (Yen's
// algorithm, at most cfg.K paths within cfg.Stretch × the shortest delay),
// exported so layers above the control plane (internal/resilience's
// disjoint-backup search) work from the exact same path pool a Controller
// with the same Config would split over. Results are positionally aligned
// with comms; a commodity with no path on the topology gets an empty slice.
func Candidates(n int, links []netsim.TopoLink, comms []netsim.Commodity, cfg Config) ([][]Path, error) {
	cfg = cfg.withDefaults()
	g, err := buildGraph(n, links)
	if err != nil {
		return nil, err
	}
	return enumerate(g, comms, cfg), nil
}
