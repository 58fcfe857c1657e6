package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// line builds a path graph 0-1-2-...-(n-1) with unit weights.
func line(n int) *Graph[float64] {
	g := New[float64](n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

func TestShortestPathLine(t *testing.T) {
	g := line(5)
	path, d := g.ShortestPath(0, 4)
	if d != 4 {
		t.Fatalf("distance = %v, want 4", d)
	}
	want := []int{0, 1, 2, 3, 4}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestShortestPathPrefersLighter(t *testing.T) {
	g := New[float64](3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 10)
	_, d := g.ShortestPath(0, 2)
	if d != 2 {
		t.Fatalf("distance = %v, want 2 (via middle node)", d)
	}
}

func TestUnreachable(t *testing.T) {
	g := New[float64](4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	path, d := g.ShortestPath(0, 3)
	if path != nil || !math.IsInf(d, 1) {
		t.Fatalf("got path %v dist %v, want unreachable", path, d)
	}
}

func TestDenseSourceShortestMatchesDijkstra(t *testing.T) {
	// The heap-free dense Dijkstra must produce bit-identical distances to
	// the adjacency-list one on random dense matrices (with some +Inf
	// holes and an unreachable node).
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(30)
		w := make([][]float64, n+1)
		for i := range w {
			w[i] = make([]float64, n+1)
			for j := range w[i] {
				w[i][j] = math.Inf(1)
			}
		}
		g := New[float64](n + 1)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.2 {
					continue // no edge
				}
				x := rng.Float64()*10 + 0.1
				w[i][j], w[j][i] = x, x
				g.AddEdge(i, j, x)
			}
		}
		// Node n stays isolated in both representations.
		for src := 0; src <= n; src++ {
			dist, _ := g.Dijkstra(src)
			dense := DenseSourceShortest(w, src)
			for v := 0; v <= n; v++ {
				if dist[v] != dense[v] && !(math.IsInf(dist[v], 1) && math.IsInf(dense[v], 1)) {
					t.Fatalf("trial %d src %d: dense[%d] = %v, Dijkstra %v", trial, src, v, dense[v], dist[v])
				}
			}
		}
	}
}

func TestSelfPath(t *testing.T) {
	g := line(3)
	path, d := g.ShortestPath(1, 1)
	if d != 0 || len(path) != 1 || path[0] != 1 {
		t.Fatalf("self path = %v/%v, want [1]/0", path, d)
	}
}

func TestDijkstraAllDistances(t *testing.T) {
	g := line(6)
	dist, prev := g.Dijkstra(2)
	for i, want := range []float64{2, 1, 0, 1, 2, 3} {
		if dist[i] != want {
			t.Errorf("dist[%d] = %v, want %v", i, dist[i], want)
		}
	}
	if prev[2] != -1 {
		t.Errorf("prev[src] = %d, want -1", prev[2])
	}
}

func TestBlockedForcesDetour(t *testing.T) {
	// Diamond: 0-1-3 (len 2) and 0-2-3 (len 4); block node 1.
	g := New[float64](4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 2)
	g.AddEdge(2, 3, 2)
	blocked := make([]bool, 4)
	blocked[1] = true
	path, d := g.ShortestPathBlocked(0, 3, blocked)
	if d != 4 {
		t.Fatalf("blocked distance = %v, want 4", d)
	}
	for _, v := range path {
		if v == 1 {
			t.Fatal("path traverses blocked node")
		}
	}
}

func TestDisjointPaths(t *testing.T) {
	// Three parallel 2-hop routes of lengths 2, 4, 6 between 0 and 4.
	g := New[float64](5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 4, 1)
	g.AddEdge(0, 2, 2)
	g.AddEdge(2, 4, 2)
	g.AddEdge(0, 3, 3)
	g.AddEdge(3, 4, 3)
	paths, lens := g.DisjointPaths(0, 4, 10)
	if len(paths) != 3 {
		t.Fatalf("found %d disjoint paths, want 3", len(paths))
	}
	for i, want := range []float64{2, 4, 6} {
		if lens[i] != want {
			t.Errorf("path %d length %v, want %v (ordered by increasing length)", i, lens[i], want)
		}
	}
	// Interior nodes must not repeat across paths.
	seen := map[int]bool{}
	for _, p := range paths {
		for _, v := range p[1 : len(p)-1] {
			if seen[v] {
				t.Fatalf("node %d reused across disjoint paths", v)
			}
			seen[v] = true
		}
	}
}

func TestDisjointPathsExhausted(t *testing.T) {
	g := line(3) // only one interior node, so only one path
	paths, _ := g.DisjointPaths(0, 2, 5)
	if len(paths) != 1 {
		t.Fatalf("got %d paths, want 1", len(paths))
	}
}

func TestPathLength(t *testing.T) {
	g := line(4)
	if l := g.PathLength([]int{0, 1, 2, 3}); l != 3 {
		t.Errorf("PathLength = %v, want 3", l)
	}
	if l := g.PathLength([]int{0, 2}); !math.IsInf(l, 1) {
		t.Errorf("PathLength over missing edge = %v, want +Inf", l)
	}
	if l := g.PathLength([]int{1}); l != 0 {
		t.Errorf("single-node path length = %v, want 0", l)
	}
}

func TestAddEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range edge")
		}
	}()
	New[float64](2).AddEdge(0, 5, 1)
}

func TestAddEdgeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative weight")
		}
	}()
	New[float64](2).AddEdge(0, 1, -1)
}

// randomGraph builds a connected random graph for property tests.
func randomGraph(rng *rand.Rand, n int) *Graph[float64] {
	g := New[float64](n)
	for i := 1; i < n; i++ {
		g.AddEdge(i, rng.Intn(i), rng.Float64()*10+0.1)
	}
	extra := n * 2
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, rng.Float64()*10+0.1)
		}
	}
	return g
}

func TestDijkstraTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(30)
		g := randomGraph(rng, n)
		src := rng.Intn(n)
		dist, _ := g.Dijkstra(src)
		// Shortest-path optimality: for every edge (u,v), dist[v] <= dist[u]+w.
		for u := 0; u < n; u++ {
			for _, e := range g.Neighbors(u) {
				if dist[e.To] > dist[u]+e.Weight+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPathMatchesDistance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		g := randomGraph(rng, n)
		src, dst := rng.Intn(n), rng.Intn(n)
		path, d := g.ShortestPath(src, dst)
		if math.IsInf(d, 1) {
			return path == nil
		}
		if path[0] != src || path[len(path)-1] != dst {
			return false
		}
		return math.Abs(g.PathLength(path)-d) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDisjointPathsMonotoneLengths(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(20)
		g := randomGraph(rng, n)
		src, dst := 0, n-1
		_, lens := g.DisjointPaths(src, dst, 5)
		for i := 1; i < len(lens); i++ {
			if lens[i] < lens[i-1]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDijkstra1kNodes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Dijkstra(i % 1000)
	}
}
