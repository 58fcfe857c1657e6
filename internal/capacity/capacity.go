// Package capacity implements Step 3 of the cISP design (§3.3): routing the
// scaled traffic matrix over the designed hybrid topology, sizing each
// microwave link in parallel tower series using the paper's k² bandwidth
// rule (k series of towers ≈ k² Gbps), and accounting for the additional
// towers each over-utilised hop needs — reusing spare existing towers where
// the registry has them, building new ones otherwise, exactly the
// conservative accounting the paper uses for Figs 3, 4c and 9.
package capacity

import (
	"math"
	"sort"

	"cisp/internal/design"
	"cisp/internal/linkbuild"
	"cisp/internal/traffic"
	"cisp/internal/units"
)

// spareTolerance is how far from a hop endpoint an existing spare tower may
// sit and still host a parallel series (§3.3: a 10.6 km offset costs ~0.2%
// stretch): 15 km.
const spareTolerance units.Meters = 15_000

// Options tunes provisioning.
type Options struct {
	// SeriesCap is the bandwidth of a single microwave series (§2:
	// "a data rate of about 1 Gbps is achievable"). Default units.Gbps(1).
	SeriesCap units.BitsPerSecond

	// NoK2 disables the paper's k² enhancement (k series ≈ k² capacity via
	// cross-connected antennae at ≥6° separation), reverting to k series ≈
	// k capacity, for the ablation benchmark. Default false: the
	// enhancement is on.
	NoK2 bool
}

func (o *Options) setDefaults() {
	if o.SeriesCap == 0 {
		o.SeriesCap = units.Gbps(1)
	}
}

// Plan is a provisioned network: per-link loads and series, the hop
// augmentation histogram of Fig 3, and the tower/install counts that feed
// the cost model.
type Plan struct {
	// LinkLoads maps built link {i,j} (i<j) to carried load.
	LinkLoads map[[2]int]units.BitsPerSecond

	// Series maps built link {i,j} to the number of parallel tower series.
	Series map[[2]int]int

	// HopHistogram counts tower-tower hops by the number of additional
	// towers needed at each end (0 = existing towers suffice; Fig 3's
	// 1,660 / 552 / 86 split).
	HopHistogram map[int]int

	HopInstalls int // radio installs: one per hop per series
	NewTowers   int // towers that must be constructed
	TowersUsed  int // towers rented in total (base + parallel series)

	// FiberFallback is demand routed entirely over fiber.
	FiberFallback units.BitsPerSecond
}

// Provision routes demand (Gbps, symmetric) over the designed topology and
// sizes every microwave link. Demand between pairs whose shortest hybrid
// path uses no microwave link contributes to FiberFallbackGbps only.
func Provision(top *design.Topology, links *linkbuild.Links, demand traffic.Matrix, opt Options) *Plan {
	opt.setDefaults()
	p := top.P
	n := p.N

	// Site-level routing graph with labelled edges: -1 = fiber, else index
	// into top.Built.
	adj := make([][]arc, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && !math.IsInf(top.FiberDist(i, j), 1) {
				adj[i] = append(adj[i], arc{to: j, w: top.FiberDist(i, j), link: -1})
			}
		}
	}
	for li, l := range top.Built {
		adj[l.I] = append(adj[l.I], arc{to: l.J, w: l.Dist, link: li})
		adj[l.J] = append(adj[l.J], arc{to: l.I, w: l.Dist, link: li})
	}

	plan := &Plan{
		LinkLoads:    make(map[[2]int]units.BitsPerSecond),
		Series:       make(map[[2]int]int),
		HopHistogram: make(map[int]int),
	}

	// Route every commodity along its shortest path, attributing load.
	for s := 0; s < n; s++ {
		dist, prevArc := dijkstraArcs(adj, s)
		for t := s + 1; t < n; t++ {
			g := demand[s][t]
			if g <= 0 || math.IsInf(dist[t], 1) {
				continue
			}
			usedMW := false
			for v := t; v != s; {
				a := prevArc[v]
				if a.link >= 0 {
					l := top.Built[a.link]
					key := linkKey(l.I, l.J)
					plan.LinkLoads[key] += units.Gbps(g)
					usedMW = true
				}
				v = a.from
			}
			if !usedMW {
				plan.FiberFallback += units.Gbps(g)
			}
		}
	}

	// Size links and augment hops. Sort keys for determinism.
	keys := make([][2]int, 0, len(top.Built))
	for _, l := range top.Built {
		keys = append(keys, linkKey(l.I, l.J))
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})

	baseTowers := make(map[int]bool) // towers on first series (already budgeted)
	spareUsed := make(map[int]bool)  // registry towers consumed as parallels
	for _, key := range keys {
		load := plan.LinkLoads[key]
		k := seriesFor(load, opt)
		plan.Series[key] = k

		towerPath := links.TowerPath(key[0], key[1])
		for _, tw := range towerPath {
			baseTowers[tw] = true
		}
		hops := links.Hops(key[0], key[1])
		for _, h := range hops {
			plan.HopInstalls += k
			if k == 1 {
				plan.HopHistogram[0]++
				continue
			}
			extra := k - 1
			spares := sparePairsNear(links, h, extra, baseTowers, spareUsed)
			newPerEnd := extra - spares
			plan.HopHistogram[newPerEnd]++
			plan.NewTowers += 2 * newPerEnd
			plan.TowersUsed += 2 * extra // parallel towers rented either way
		}
	}
	plan.TowersUsed += len(baseTowers)
	return plan
}

// seriesFor applies the paper's sizing rule: with the k² trick, k parallel
// series of towers provide k² Gbps, so k = ceil(sqrt(load)); without it,
// k = ceil(load).
func seriesFor(load units.BitsPerSecond, opt Options) int {
	if load <= opt.SeriesCap {
		return 1
	}
	caps := float64(load) / float64(opt.SeriesCap)
	if opt.NoK2 {
		return int(math.Ceil(caps))
	}
	return int(math.Ceil(math.Sqrt(caps)))
}

// sparePairsNear counts how many parallel series (up to want) can be hosted
// on spare existing towers near both endpoints of the hop, consuming them.
func sparePairsNear(links *linkbuild.Links, hop [2]int, want int, base, used map[int]bool) int {
	reg := links.Reg
	available := func(end int) []int {
		var out []int
		for _, id := range reg.WithinRange(reg.Tower(end).Loc, spareTolerance) {
			if id != hop[0] && id != hop[1] && !base[id] && !used[id] {
				out = append(out, id)
			}
		}
		return out
	}
	a := available(hop[0])
	b := available(hop[1])
	pairs := len(a)
	if len(b) < pairs {
		pairs = len(b)
	}
	if pairs > want {
		pairs = want
	}
	for k := 0; k < pairs; k++ {
		used[a[k]] = true
		used[b[k]] = true
	}
	return pairs
}

func linkKey(i, j int) [2]int {
	if i > j {
		i, j = j, i
	}
	return [2]int{i, j}
}

// arc is a labelled edge of the site-level routing graph: link -1 is fiber,
// otherwise an index into the topology's built microwave links.
type arc struct {
	to   int
	w    float64
	link int
}

// inArc records how a node was reached in dijkstraArcs.
type inArc struct {
	from int
	link int
}

// dijkstraArcs is a small labelled-arc Dijkstra for the site-level routing
// graph (n ≈ 130, dense), recording the incoming arc of each node.
func dijkstraArcs(adj [][]arc, src int) ([]float64, []inArc) {
	n := len(adj)
	dist := make([]float64, n)
	prev := make([]inArc, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = inArc{from: -1, link: -1}
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		u, best := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < best {
				u, best = v, dist[v]
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		for _, a := range adj[u] {
			if nd := dist[u] + a.w; nd < dist[a.to]-1e-9 {
				dist[a.to] = nd
				prev[a.to] = inArc{from: u, link: a.link}
			} else if nd < dist[a.to]+1e-9 && a.link >= 0 && prev[a.to].link < 0 && !done[a.to] {
				// Tie-break toward microwave links (they exist because the
				// optimizer chose them; the paper routes design traffic on
				// the built links).
				dist[a.to] = nd
				prev[a.to] = inArc{from: u, link: a.link}
			}
		}
	}
	return dist, prev
}
