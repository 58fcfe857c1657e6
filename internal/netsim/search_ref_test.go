package netsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"cisp/internal/units"
)

// delayTree is the reference least-delay search: Dijkstra that scans every
// node for the unsettled minimum (least distance, lowest index on ties),
// run from src to exhaustion over the links. It returns each node's
// distance and predecessor (-1 for src and unreached nodes).
func delayTree(n int, links []TopoLink, src int) ([]float64, []int) {
	type half struct {
		to    int
		delay float64
	}
	adj := make([][]half, n)
	for _, l := range links {
		adj[l.A] = append(adj[l.A], half{l.B, float64(l.PropDelay)})
		adj[l.B] = append(adj[l.B], half{l.A, float64(l.PropDelay)})
	}
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
			return dist, prev
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

// routeDelays makes tied and zero delays common; 0.1 and 0.2 do not sum
// to 0.3 in floating point, so path sums that tie on paper need not.
var routeDelays = []float64{0, 0.001, 0.001, 0.002, 0.003, 0.1, 0.2, 0.3}

// runRouteCase draws a seeded simple mesh of 2–24 nodes: each pair of
// linked nodes joined with probability fill/255 in a random direction and
// list position, about one link in five at zero rate, and up to two
// isolated nodes. Over every ordered pair, in a shuffled commodity order,
// ComputeRoutes(ShortestPath)'s path and DelaySearch's distance bits must
// equal delayTree's over the positive-rate links.
func runRouteCase(t *testing.T, seed int64, nodes, fill, isolated uint8) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 2 + int(nodes)%23
	alone := make([]bool, n)
	for _, v := range rng.Perm(n)[:int(isolated)%3] {
		alone[v] = true
	}
	var links []TopoLink
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if alone[a] || alone[b] || rng.Intn(255) >= int(fill) {
				continue
			}
			l := TopoLink{A: a, B: b, RateBps: 1e9, PropDelay: units.Seconds(routeDelays[rng.Intn(len(routeDelays))])}
			if rng.Intn(2) == 0 {
				l.A, l.B = b, a
			}
			if rng.Intn(5) == 0 {
				l.RateBps = 0
			}
			links = append(links, l)
		}
	}
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	var comms []Commodity
	for _, k := range rng.Perm(n * n) {
		comms = append(comms, Commodity{Flow: k, Src: k / n, Dst: k % n})
	}

	paths := ComputeRoutes(n, links, comms, ShortestPath)
	index, err := NewLinkIndex(n, links)
	if err != nil {
		t.Fatal(err)
	}
	dists, prevs := make([][]float64, n), make([][]int, n)
	for src := range dists {
		dists[src], prevs[src] = delayTree(n, Live(links), src)
	}
	s, visited := NewDelaySearch(index, links), 0
	s.EachSource(comms, func(i int) {
		visited++
		src, dst := comms[i].Src, comms[i].Dst
		if got, want := s.Dist(dst), dists[src][dst]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d n=%d %d→%d: search delay %v, scan %v", seed, n, src, dst, got, want)
		}
		var want []int // the scan's path, nil when dst is unreached
		if !math.IsInf(dists[src][dst], 1) {
			for v := dst; v != src; v = prevs[src][v] {
				want = append(want, v)
			}
			want = append(want, src)
			slices.Reverse(want)
		}
		got, ok := paths[comms[i].Flow]
		if ok != (want != nil) || !slices.Equal(got, want) {
			t.Fatalf("seed %d n=%d %d→%d: route %v (found %v), scan %v", seed, n, src, dst, got, ok, want)
		}
	})
	if visited != len(comms) {
		t.Fatalf("seed %d n=%d: EachSource visited %d of %d commodities", seed, n, visited, len(comms))
	}
}

func FuzzShortestRoutesMatchScan(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed, uint8(seed*7), uint8(40+seed*61), uint8(seed))
	}
	f.Fuzz(runRouteCase)
}
