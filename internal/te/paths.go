package te

import (
	"fmt"
	"math"
	"slices"

	"cisp/internal/netsim"
	"cisp/internal/parallel"
)

// graph is the directed TE topology: a duplex link list and its
// netsim.LinkIndex, which numbers link i's A→B edge 2i and its B→A edge
// 2i+1. Both edges of a link share its rate, the capacity the LP and
// UpdateCapacities work on (0 = link down, excluded from path search),
// and its propagation delay.
type graph struct {
	index *netsim.LinkIndex
	links []netsim.TopoLink // the graph's own copy: rates change in place
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
	for i, l := range links {
		if r := float64(l.RateBps); !solvable(r) {
			return nil, fmt.Errorf("te: link %d (%d-%d) has rate %v", i, l.A, l.B, r)
		}
	}
	return &graph{index: index, links: slices.Clone(links)}, nil
}

// capBps returns edge e's capacity, bits per second.
func (g *graph) capBps(e int32) float64 { return float64(g.links[e/2].RateBps) }

// delay returns edge e's propagation delay, seconds.
func (g *graph) delay(e int32) float64 { return float64(g.links[e/2].PropDelay) }

// Path is one candidate forwarding path of a commodity.
type Path struct {
	Nodes []int
	Delay float64 // end-to-end propagation delay, seconds
	edges []int32
}

func (g *graph) pathFromEdges(src int, eids []int32) Path {
	p := Path{Nodes: g.index.Nodes(src, eids), edges: eids}
	for _, e := range eids {
		p.Delay += g.delay(e)
	}
	return p
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
func yen(g *graph, s *netsim.DelaySearch, src, dst, k int, stretch float64) []Path {
	bestE, bestD := s.Run(src, dst, 0, math.Inf(1))
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
					s.BanLink(p.edges[i], true)
				}
			}
			for _, v := range prev.Nodes[:i] {
				s.BanNode(v, true)
			}
			spurE, _ := s.Run(spur, dst, rootD, maxDelay)
			for _, p := range A {
				if len(p.edges) > i && slices.Equal(p.edges[:i], root) {
					s.BanLink(p.edges[i], false)
				}
			}
			for _, v := range prev.Nodes[:i] {
				s.BanNode(v, false)
			}
			rootD += g.delay(prev.edges[i])
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

// enumerate runs Yen at k for every commodity over the clear-sky links,
// fanned out over the shared worker pool: one Yen run per commodity, one
// search per chunk. Results are positionally stable, and yen lifts every
// ban it sets and a run resets the rest, so neither the fan-out nor the
// chunking can change a path.
func (c *Controller) enumerate(k int) [][]Path {
	g := &graph{index: c.g.index, links: c.clear}
	out := make([][]Path, len(c.commodities))
	parallel.For(len(out), 1, func(lo, hi int) {
		s := netsim.NewDelaySearch(g.index, g.links)
		for i := lo; i < hi; i++ {
			out[i] = yen(g, s, c.commodities[i].Src, c.commodities[i].Dst, k, c.cfg.Stretch)
		}
	})
	return out
}
