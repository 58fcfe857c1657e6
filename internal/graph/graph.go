// Package graph implements the weighted-graph algorithms the cISP pipeline
// needs: heap-based Dijkstra over large sparse tower graphs, shortest-path
// extraction, node-blocked searches for tower-disjoint routing (Fig 4b of
// the paper), and all-pairs helpers for small site graphs.
//
// Nodes are dense integer IDs; edges are undirected with non-negative
// weights. The weight type is generic over ~float64 so each instantiation
// carries its own physical dimension (units.Meters for the tower and
// fiber graphs, raw float64 for dimension-neutral matrices): the graph
// layer is a dimension-polymorphic carrier — it never mixes two weight
// units, and the cisplint unitcheck analyzer checks the call sites that
// instantiate it.
package graph

import (
	"fmt"
	"math"

	"cisp/internal/xheap"
)

// Edge is a directed half-edge in an adjacency list.
type Edge[W ~float64] struct {
	To     int
	Weight W
}

// Graph is an undirected weighted graph over a fixed node set; build one
// with New.
type Graph[W ~float64] struct {
	adj [][]Edge[W]
}

// New returns a graph with n isolated nodes.
func New[W ~float64](n int) *Graph[W] {
	return &Graph[W]{adj: make([][]Edge[W], n)}
}

// N returns the number of nodes.
func (g *Graph[W]) N() int { return len(g.adj) }

// AddEdge adds an undirected edge of the given non-negative weight. It
// panics on out-of-range nodes or negative weight — both are programming
// errors in this codebase, not runtime conditions.
func (g *Graph[W]) AddEdge(u, v int, w W) {
	if u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", u, v, len(g.adj)))
	}
	if w < 0 || math.IsNaN(float64(w)) {
		panic(fmt.Sprintf("graph: negative or NaN weight %v", w))
	}
	g.adj[u] = append(g.adj[u], Edge[W]{To: v, Weight: w})
	g.adj[v] = append(g.adj[v], Edge[W]{To: u, Weight: w})
}

// Neighbors returns the adjacency list of u. The slice is shared with the
// graph and must not be modified.
func (g *Graph[W]) Neighbors(u int) []Edge[W] { return g.adj[u] }

// item is a heap entry; stale duplicates are skipped on pop.
type item[W ~float64] struct {
	node int
	dist W
}

// itemLess orders the Dijkstra frontier by tentative distance. Equal
// distances pop in heap order, which is deterministic for a given input;
// dist/prev results do not depend on how such ties break.
func itemLess[W ~float64](a, b item[W]) bool { return a.dist < b.dist }

// Dijkstra computes single-source shortest distances from src. Unreachable
// nodes get +Inf distance and prev -1. prev[src] is -1.
func (g *Graph[W]) Dijkstra(src int) (dist []W, prev []int) {
	return g.dijkstra(src, -1, nil)
}

// dijkstra runs until exhaustion or until target is settled (target=-1 to
// settle all nodes).
//
//cisp:hotpath
func (g *Graph[W]) dijkstra(src, target int, blocked []bool) ([]W, []int) {
	n := len(g.adj)
	// Once-per-call result and frontier setup, amortized over O(E log V)
	// relaxations; the relaxation loop below is allocation-free.
	dist := make([]W, n)    //lint:allow hotpathalloc -- once-per-call setup, also the return value
	prev := make([]int, n)  //lint:allow hotpathalloc -- once-per-call setup, also the return value
	done := make([]bool, n) //lint:allow hotpathalloc -- once-per-call setup
	for i := range dist {
		dist[i] = W(math.Inf(1))
		prev[i] = -1
	}
	dist[src] = 0
	q := []item[W]{{node: src, dist: 0}} //lint:allow hotpathalloc -- once-per-call frontier seed
	for len(q) > 0 {
		it := xheap.Pop(&q, itemLess[W])
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == target {
			break
		}
		for _, e := range g.adj[u] {
			v := e.To
			if done[v] || (blocked != nil && blocked[v]) {
				continue
			}
			if nd := dist[u] + e.Weight; nd < dist[v] {
				dist[v] = nd
				prev[v] = u
				xheap.Push(&q, item[W]{node: v, dist: nd}, itemLess[W])
			}
		}
	}
	return dist, prev
}

// ShortestPath returns the node sequence (src..dst inclusive) and length of
// the shortest path, or (nil, +Inf) if dst is unreachable.
func (g *Graph[W]) ShortestPath(src, dst int) ([]int, W) {
	return g.ShortestPathBlocked(src, dst, nil)
}

// ShortestPathBlocked is ShortestPath avoiding blocked nodes.
func (g *Graph[W]) ShortestPathBlocked(src, dst int, blocked []bool) ([]int, W) {
	if src == dst {
		return []int{src}, 0
	}
	dist, prev := g.dijkstra(src, dst, blocked)
	if math.IsInf(float64(dist[dst]), 1) {
		return nil, W(math.Inf(1))
	}
	return extractPath(prev, src, dst), dist[dst]
}

func extractPath(prev []int, src, dst int) []int {
	var rev []int
	for v := dst; v != -1; v = prev[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// DisjointPaths returns up to k node-disjoint shortest paths between src and
// dst, found iteratively: after each path is extracted, its interior nodes
// are blocked and the search repeats (the paper's Fig 4b "tower-disjoint
// shortest paths" procedure). It stops early when no further path exists.
func (g *Graph[W]) DisjointPaths(src, dst, k int) (paths [][]int, lengths []W) {
	blocked := make([]bool, len(g.adj))
	for i := 0; i < k; i++ {
		path, length := g.ShortestPathBlocked(src, dst, blocked)
		if path == nil {
			break
		}
		paths = append(paths, path)
		lengths = append(lengths, length)
		for _, v := range path {
			if v != src && v != dst {
				blocked[v] = true
			}
		}
	}
	return paths, lengths
}

// PathLength sums edge weights along the node sequence, returning +Inf if a
// consecutive pair is not connected.
func (g *Graph[W]) PathLength(path []int) W {
	total := W(0)
	for i := 0; i+1 < len(path); i++ {
		w := W(math.Inf(1))
		for _, e := range g.adj[path[i]] {
			if e.To == path[i+1] && e.Weight < w {
				w = e.Weight
			}
		}
		if math.IsInf(float64(w), 1) {
			return w
		}
		total += w
	}
	return total
}

// DenseSourceShortest computes single-source shortest distances from src
// over a complete weight matrix w (w[u][v] = +Inf where no edge; the
// diagonal is ignored). It is the dense counterpart of Dijkstra: an O(n²)
// scan-for-minimum with no heap and one allocation, which matches
// Floyd-Warshall's per-source cost on complete graphs where the heap
// version pays an extra log factor. Ties settle at the lowest node index,
// and the resulting distances are bit-identical to heap Dijkstra's (each
// dist[v] is a min over the same sums, and min is order-independent).
func DenseSourceShortest[W ~float64](w [][]W, src int) []W {
	n := len(w)
	dist := make([]W, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = W(math.Inf(1))
	}
	dist[src] = 0
	for range n {
		u, best := -1, W(math.Inf(1))
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < best {
				u, best = v, dist[v]
			}
		}
		if u < 0 {
			break // remaining nodes unreachable
		}
		done[u] = true
		wu := w[u]
		for v := 0; v < n; v++ {
			if done[v] || v == u {
				continue
			}
			if nd := best + wu[v]; nd < dist[v] {
				dist[v] = nd
			}
		}
	}
	return dist
}
