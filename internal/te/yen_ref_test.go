package te

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"cisp/internal/netsim"
	"cisp/internal/units"
)

// scanScratch is the reference shortest-path search: Dijkstra that scans
// every node for the unsettled minimum (least distance, lowest index on
// ties), run to the destination with no delay bound.
type scanScratch struct {
	dist    []float64
	prevE   []int32
	done    []bool
	edgeBan []bool
	nodeBan []bool
}

func newScanScratch(g *graph) *scanScratch {
	n := g.index.N()
	return &scanScratch{
		dist:    make([]float64, n),
		prevE:   make([]int32, n),
		done:    make([]bool, n),
		edgeBan: make([]bool, 2*len(g.links)),
		nodeBan: make([]bool, n),
	}
}

// ends returns edge e's tail and head: link e/2 from A to B for an even
// e, from B to A for an odd one.
func ends(g *graph, e int32) (from, to int) {
	l := g.links[e/2]
	if e%2 == 0 {
		return l.A, l.B
	}
	return l.B, l.A
}

func (s *scanScratch) run(g *graph, src, dst int) ([]int32, float64) {
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
		s.prevE[i] = -1
		s.done[i] = false
	}
	s.dist[src] = 0
	for {
		u, best := -1, math.Inf(1)
		for v := range s.dist {
			if !s.done[v] && !s.nodeBan[v] && s.dist[v] < best {
				u, best = v, s.dist[v]
			}
		}
		if u < 0 || u == dst {
			break
		}
		s.done[u] = true
		for _, ei := range g.index.Out(u) {
			_, to := ends(g, ei)
			if s.edgeBan[ei] || s.nodeBan[to] || g.capBps(ei) <= 0 {
				continue
			}
			if nd := s.dist[u] + g.delay(ei); nd < s.dist[to] {
				s.dist[to] = nd
				s.prevE[to] = ei
			}
		}
	}
	if math.IsInf(s.dist[dst], 1) {
		return nil, 0
	}
	var rev []int32
	for v := dst; v != src; {
		ei := s.prevE[v]
		rev = append(rev, ei)
		v, _ = ends(g, ei)
	}
	out := make([]int32, len(rev))
	for i, e := range rev {
		out[len(rev)-1-i] = e
	}
	return out, s.dist[dst]
}

// yenScan is Yen's algorithm over the scan search, with every spur search
// run to completion and its result discarded afterwards when it breaks the
// delay cap: the reference yen must match path for path.
func yenScan(g *graph, src, dst, k int, stretch float64) []Path {
	scratch := newScanScratch(g)
	bestE, bestD := scratch.run(g, src, dst)
	if bestE == nil {
		return nil
	}
	maxDelay := bestD * stretch
	A := []Path{g.pathFromEdges(src, bestE)}
	var B []Path
	for len(A) < k {
		prev := A[len(A)-1]
		for i := 0; i < len(prev.edges); i++ {
			spur := prev.Nodes[i]
			for _, p := range A {
				if len(p.edges) > i && slices.Equal(p.edges[:i], prev.edges[:i]) {
					scratch.edgeBan[p.edges[i]] = true
				}
			}
			for _, v := range prev.Nodes[:i] {
				scratch.nodeBan[v] = true
			}
			spurE, spurD := scratch.run(g, spur, dst)
			for _, p := range A {
				if len(p.edges) > i && slices.Equal(p.edges[:i], prev.edges[:i]) {
					scratch.edgeBan[p.edges[i]] = false
				}
			}
			for _, v := range prev.Nodes[:i] {
				scratch.nodeBan[v] = false
			}
			if spurE == nil {
				continue
			}
			rootD := 0.0
			for _, ei := range prev.edges[:i] {
				rootD += g.delay(ei)
			}
			if rootD+spurD > maxDelay {
				continue
			}
			full := make([]int32, 0, i+len(spurE))
			full = append(full, prev.edges[:i]...)
			full = append(full, spurE...)
			dup := false
			for _, p := range append(A, B...) {
				if slices.Equal(p.edges, full) {
					dup = true
					break
				}
			}
			if !dup {
				B = append(B, g.pathFromEdges(src, full))
			}
		}
		if len(B) == 0 {
			break
		}
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

// yenCase seeds one random graph: up to 12 nodes, each pair linked with
// probability fill/255, delays drawn from a small tie-heavy set that
// includes zero, and about one link in five at zero capacity. Every
// ordered node pair is searched at the case's K and stretch.
type yenCase struct {
	seed           int64
	nodes, fill, k uint8
}

// yenDelays makes tied and zero delays common; 0.1 and 0.2 do not sum to
// 0.3 in floating point, so path sums that tie on paper need not.
var yenDelays = []float64{0, 0.001, 0.001, 0.002, 0.003, 0.1, 0.2, 0.3}

var yenStretches = []float64{1, 1.5, 3, math.Inf(1)}

func (c yenCase) graph(t *testing.T) (*graph, int) {
	rng := rand.New(rand.NewSource(c.seed))
	n := 2 + int(c.nodes)%11
	var links []netsim.TopoLink
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Intn(255) >= int(c.fill) {
				continue
			}
			l := netsim.TopoLink{A: a, B: b, RateBps: 1e9, PropDelay: units.Seconds(yenDelays[rng.Intn(len(yenDelays))])}
			if rng.Intn(5) == 0 {
				l.RateBps = 0
			}
			links = append(links, l)
		}
	}
	g, err := buildGraph(n, links)
	if err != nil {
		t.Fatalf("case %+v: %v", c, err)
	}
	return g, n
}

func runYenCase(t *testing.T, c yenCase) {
	t.Helper()
	g, n := c.graph(t)
	k := 1 + int(c.k)%8
	s := netsim.NewDelaySearch(g.index, g.links)
	for _, stretch := range yenStretches {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				got := yen(g, s, src, dst, k, stretch)
				want := yenScan(g, src, dst, k, stretch)
				if len(got) != len(want) {
					t.Fatalf("case %+v %d→%d K %d stretch %v: %d paths, scan found %d",
						c, src, dst, k, stretch, len(got), len(want))
				}
				for i := range want {
					if !slices.Equal(got[i].edges, want[i].edges) ||
						math.Float64bits(got[i].Delay) != math.Float64bits(want[i].Delay) {
						t.Fatalf("case %+v %d→%d K %d stretch %v: path %d = %v (%v s), scan %v (%v s)",
							c, src, dst, k, stretch, i, got[i].Nodes, got[i].Delay, want[i].Nodes, want[i].Delay)
					}
				}
			}
		}
	}
}

var yenCases = []yenCase{
	{1, 3, 255, 7},   // complete 5-node graph, K 8
	{2, 10, 80, 3},   // sparse 12-node graph
	{3, 8, 160, 0},   // K 1
	{4, 6, 255, 5},   // complete 8-node graph, K 6
	{5, 0, 255, 7},   // two nodes
	{6, 10, 255, 7},  // complete 12-node graph, K 8
	{7, 9, 120, 4},   // mid density
	{8, 10, 40, 7},   // near-disconnected
	{9, 7, 200, 2},   // dense, K 3
	{10, 10, 180, 6}, // dense 12-node graph, K 7
}

// TestYenMatchesScan holds yen to the scan-Dijkstra reference on seeded
// random graphs with tied and zero delays, zero-capacity links, K 1–8 and
// stretch 1, 1.5, 3 and +Inf: every path's edges and Delay bits are equal.
func TestYenMatchesScan(t *testing.T) {
	for _, c := range yenCases {
		runYenCase(t, c)
	}
	for seed := int64(100); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		runYenCase(t, yenCase{seed, uint8(rng.Intn(11)), uint8(rng.Intn(256)), uint8(rng.Intn(8))})
	}
}

func FuzzYenMatchesScan(f *testing.F) {
	for _, c := range yenCases {
		f.Add(c.seed, c.nodes, c.fill, c.k)
	}
	f.Fuzz(func(t *testing.T, seed int64, nodes, fill, k uint8) {
		runYenCase(t, yenCase{seed, nodes, fill, k})
	})
}
