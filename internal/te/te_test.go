package te

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cisp/internal/netsim"
	"cisp/internal/parallel"
	"cisp/internal/units"
)

// diamond is the canonical split fixture: two disjoint equal-capacity paths
// 0-1-3 (fast) and 0-2-3 (slower but inside the stretch cap).
func diamond() []netsim.TopoLink {
	return []netsim.TopoLink{
		{A: 0, B: 1, RateBps: 10e6, PropDelay: 0.002},
		{A: 1, B: 3, RateBps: 10e6, PropDelay: 0.002},
		{A: 0, B: 2, RateBps: 10e6, PropDelay: 0.0025},
		{A: 2, B: 3, RateBps: 10e6, PropDelay: 0.0025},
	}
}

func TestYenEnumeratesDiversePaths(t *testing.T) {
	g, err := buildGraph(4, diamond())
	if err != nil {
		t.Fatal(err)
	}
	paths := yen(g, netsim.NewDelaySearch(g.index, g.links), 0, 3, 4, 2.0)
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2 (the disjoint diamond arms)", len(paths))
	}
	if paths[0].Delay >= paths[1].Delay {
		t.Fatalf("paths not delay-sorted: %v then %v", paths[0].Delay, paths[1].Delay)
	}
	want := [][]int{{0, 1, 3}, {0, 2, 3}}
	for i, p := range paths {
		if len(p.Nodes) != 3 {
			t.Fatalf("path %d = %v, want 3 nodes", i, p.Nodes)
		}
		for j, v := range want[i] {
			if p.Nodes[j] != v {
				t.Fatalf("path %d = %v, want %v", i, p.Nodes, want[i])
			}
		}
	}
}

func TestYenStretchCap(t *testing.T) {
	// The 0-2-3 arm is 25% longer than 0-1-3; a stretch cap of 1.2 must
	// exclude it.
	g, _ := buildGraph(4, diamond())
	paths := yen(g, netsim.NewDelaySearch(g.index, g.links), 0, 3, 4, 1.2)
	if len(paths) != 1 {
		t.Fatalf("got %d paths under stretch 1.2, want 1", len(paths))
	}
}

func TestYenLongerGraph(t *testing.T) {
	// A 5-node graph with three routes 0→4 of distinct delays, including
	// ones sharing edges — Yen must produce loopless, distinct paths in
	// delay order.
	links := []netsim.TopoLink{
		{A: 0, B: 1, RateBps: 1, PropDelay: 1},
		{A: 1, B: 4, RateBps: 1, PropDelay: 1},
		{A: 0, B: 2, RateBps: 1, PropDelay: 1},
		{A: 2, B: 4, RateBps: 1, PropDelay: 1.5},
		{A: 1, B: 2, RateBps: 1, PropDelay: 0.1},
		{A: 0, B: 3, RateBps: 1, PropDelay: 3},
		{A: 3, B: 4, RateBps: 1, PropDelay: 3},
	}
	g, _ := buildGraph(5, links)
	paths := yen(g, netsim.NewDelaySearch(g.index, g.links), 0, 4, 10, 10)
	if len(paths) < 3 {
		t.Fatalf("got %d paths, want >= 3", len(paths))
	}
	for i := 1; i < len(paths); i++ {
		if paths[i].Delay < paths[i-1].Delay {
			t.Fatalf("paths out of delay order at %d: %v", i, paths)
		}
	}
	seen := map[string]bool{}
	for _, p := range paths {
		inPath := map[int]bool{}
		key := ""
		for _, v := range p.Nodes {
			if inPath[v] {
				t.Fatalf("loop in path %v", p.Nodes)
			}
			inPath[v] = true
			key += string(rune('a' + v))
		}
		if seen[key] {
			t.Fatalf("duplicate path %v", p.Nodes)
		}
		seen[key] = true
	}
}

func TestBuildGraphRejectsParallelEdges(t *testing.T) {
	links := append(diamond(), netsim.TopoLink{A: 0, B: 1, RateBps: 1e6, PropDelay: 0.01})
	if _, err := buildGraph(4, links); err == nil {
		t.Fatal("no error for parallel directed links")
	}
}

// TestSolveBalancesDiamond: one commodity at 150% of a single arm's
// capacity must split across both arms, halving the MLU relative to
// shortest-path routing.
func TestSolveBalancesDiamond(t *testing.T) {
	links := diamond()
	comms := []netsim.Commodity{{Flow: 1, Src: 0, Dst: 3, Demand: 15e6}}
	sol, err := Solve(4, links, comms, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != "lp" {
		t.Fatalf("method = %q, want lp", sol.Method)
	}
	sp := sol.Splits[1]
	if len(sp) != 2 {
		t.Fatalf("splits = %+v, want both arms", sp)
	}
	if math.Abs(float64(sol.MLU)-0.75) > 1e-6 {
		t.Fatalf("MLU = %v, want 0.75 (15 Mbps over 2×10 Mbps arms)", sol.MLU)
	}
	total := 0.0
	for _, s := range sp {
		total += s.Frac
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("fractions sum to %v, want 1", total)
	}
	// Single-path routing pins 15 Mbps on a 10 Mbps arm: MLU 1.5.
	spMLU := splitMLU(t, 4, links, comms, map[int][]netsim.SplitPath{
		1: {{Path: []int{0, 1, 3}, Frac: 1}},
	})
	if spMLU <= sol.MLU {
		t.Fatalf("shortest-path MLU %v not worse than TE MLU %v", spMLU, sol.MLU)
	}
}

// splitMLU is the maximum link utilization of a split set over links.
func splitMLU(t *testing.T, n int, links []netsim.TopoLink, comms []netsim.Commodity, splits map[int][]netsim.SplitPath) units.Utilization {
	t.Helper()
	index, err := netsim.NewLinkIndex(n, links)
	if err != nil {
		t.Fatal(err)
	}
	load, err := index.SplitLoad(comms, splits)
	if err != nil {
		t.Fatal(err)
	}
	return netsim.MaxUtilization(links, load)
}

// TestSolvePrefersShortPathWhenUncongested: with demand far below one arm's
// capacity the delay tie-break must keep everything on the fast arm.
func TestSolvePrefersShortPathWhenUncongested(t *testing.T) {
	comms := []netsim.Commodity{{Flow: 1, Src: 0, Dst: 3, Demand: 1e6}}
	sol, err := Solve(4, diamond(), comms, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sp := sol.Splits[1]
	if len(sp) != 1 || sp[0].Frac < 0.999 {
		t.Fatalf("splits = %+v, want all on the fast arm", sp)
	}
	if sp[0].Path[1] != 1 {
		t.Fatalf("path = %v, want via node 1 (lower delay)", sp[0].Path)
	}
}

// TestStretchCapBindsInSolve: with a tight stretch cap the slower arm is
// not a candidate, so the solver cannot split even under overload.
func TestStretchCapBindsInSolve(t *testing.T) {
	comms := []netsim.Commodity{{Flow: 1, Src: 0, Dst: 3, Demand: 15e6}}
	sol, err := Solve(4, diamond(), comms, Config{Stretch: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Splits[1]) != 1 {
		t.Fatalf("splits = %+v, want single path under stretch 1.1", sol.Splits[1])
	}
	if math.Abs(float64(sol.MLU)-1.5) > 1e-6 {
		t.Fatalf("MLU = %v, want 1.5", sol.MLU)
	}
}

// grid builds an x×y grid topology with uniform link capacity — enough
// path diversity for instances on both sides of the lp/block-lp threshold.
func grid(x, y int, capBps units.BitsPerSecond) (int, []netsim.TopoLink) {
	id := func(i, j int) int { return i*y + j }
	var links []netsim.TopoLink
	for i := 0; i < x; i++ {
		for j := 0; j < y; j++ {
			if i+1 < x {
				links = append(links, netsim.TopoLink{A: id(i, j), B: id(i+1, j), RateBps: capBps, PropDelay: 0.001})
			}
			if j+1 < y {
				links = append(links, netsim.TopoLink{A: id(i, j), B: id(i, j+1), RateBps: capBps, PropDelay: 0.001})
			}
		}
	}
	return x * y, links
}

func gridComms(n, count int) []netsim.Commodity {
	comms := make([]netsim.Commodity, count)
	for k := 0; k < count; k++ {
		src := (k * 7) % n
		dst := (src + 1 + (k*13)%(n-1)) % n
		comms[k] = netsim.Commodity{Flow: k + 1, Src: src, Dst: dst, Demand: units.BitsPerSecond(1e6 + float64(k%5)*4e5)}
	}
	return comms
}

// gridCases are congested grid instances on either side of the
// 1 500-variable threshold between one global LP and the block LP. Stretch
// 3 keeps grid detours (3 hops vs 1) inside the candidate sets so there is
// real path diversity.
var gridCases = []struct {
	name   string
	side   int // grid is side × side
	comms  int
	method string
}{
	{"5x5", 5, 300, "lp"},       // 1 142 variables
	{"6x6", 6, 420, "block-lp"}, // 1 629 variables
}

// TestMethodSelectionAndOrdering: each grid instance must reach the method
// its size selects, satisfy conservation, route every commodity, and
// improve on all-shortest-path routing.
func TestMethodSelectionAndOrdering(t *testing.T) {
	for _, tc := range gridCases {
		n, links := grid(tc.side, tc.side, 5e6)
		comms := gridComms(n, tc.comms)
		sol, err := Solve(n, links, comms, Config{Stretch: 3})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Method != tc.method {
			t.Fatalf("%s: method = %q, want %s", tc.name, sol.Method, tc.method)
		}

		// All-shortest-path baseline.
		base := map[int][]netsim.SplitPath{}
		g, _ := buildGraph(n, links)
		search := netsim.NewDelaySearch(g.index, g.links)
		for _, cm := range comms {
			eids, _ := search.Run(cm.Src, cm.Dst, 0, math.Inf(1))
			p := g.pathFromEdges(cm.Src, eids)
			base[cm.Flow] = []netsim.SplitPath{{Path: p.Nodes, Frac: 1}}
		}
		baseMLU := splitMLU(t, n, links, comms, base)

		for flow, sp := range sol.Splits {
			sum := 0.0
			for _, s := range sp {
				sum += s.Frac
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Errorf("%s: commodity %d fractions sum to %v", tc.name, flow, sum)
			}
		}
		if len(sol.Splits) != len(comms) {
			t.Errorf("%s: %d commodities routed, want %d", tc.name, len(sol.Splits), len(comms))
		}
		if sol.MLU >= baseMLU {
			t.Errorf("%s: MLU %v not better than shortest-path %v", tc.name, sol.MLU, baseMLU)
		}
	}
}

// TestSolveDeterministicAcrossWorkers: path enumeration and the block
// solver fan out over internal/parallel; the block-lp instance must give
// bit-identical splits on one worker and on eight.
func TestSolveDeterministicAcrossWorkers(t *testing.T) {
	tc := gridCases[1]
	n, links := grid(tc.side, tc.side, 5e6)
	comms := gridComms(n, tc.comms)
	run := func(workers int) *Solution {
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		sol, err := Solve(n, links, comms, Config{Stretch: 3})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Method != tc.method {
			t.Fatalf("method = %q, want %s", sol.Method, tc.method)
		}
		return sol
	}
	a := run(1)
	b := run(8)
	if a.MLU != b.MLU {
		t.Fatalf("MLU differs across worker counts: %v vs %v", a.MLU, b.MLU)
	}
	if len(a.Splits) != len(b.Splits) {
		t.Fatalf("%d vs %d commodities routed", len(a.Splits), len(b.Splits))
	}
	for flow, sa := range a.Splits {
		sb := b.Splits[flow]
		if len(sa) != len(sb) {
			t.Fatalf("commodity %d split sizes differ", flow)
		}
		for i := range sa {
			if sa[i].Frac != sb[i].Frac || !slices.Equal(sa[i].Path, sb[i].Path) {
				t.Fatalf("commodity %d split %d differs: %+v vs %+v", flow, i, sa[i], sb[i])
			}
		}
	}
}

// TestControllerWarmReoptimization: degrade one diamond arm — only the
// commodity using it is affected and traffic shifts away; restore it — the
// original split comes back. A second, disjoint commodity must keep its
// split bit-identical throughout.
func TestControllerWarmReoptimization(t *testing.T) {
	links := append(diamond(),
		netsim.TopoLink{A: 4, B: 5, RateBps: 10e6, PropDelay: 0.001})
	comms := []netsim.Commodity{
		{Flow: 1, Src: 0, Dst: 3, Demand: 15e6},
		{Flow: 2, Src: 4, Dst: 5, Demand: 2e6},
	}
	ctrl, err := NewController(6, links, comms, Config{})
	if err != nil {
		t.Fatal(err)
	}
	clear := ctrl.Solution()
	if len(clear.Splits[1]) != 2 {
		t.Fatalf("clear-sky splits = %+v, want both arms", clear.Splits[1])
	}
	otherBefore := clear.Splits[2]
	clearFracs := []float64{clear.Splits[1][0].Frac, clear.Splits[1][1].Frac}
	clearMLU := clear.MLU

	// Rain kills the fast arm's first hop.
	degraded := append([]netsim.TopoLink(nil), links...)
	degraded[0].RateBps = 0
	affected, err := ctrl.UpdateCapacities(degraded)
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 1 || affected[0] != 1 {
		t.Fatalf("affected = %v, want [1]", affected)
	}
	stormy := ctrl.Solution()
	sp := stormy.Splits[1]
	if len(sp) != 1 || sp[0].Path[1] != 2 {
		t.Fatalf("stormy splits = %+v, want everything on the 0-2-3 arm", sp)
	}
	if math.Abs(float64(stormy.MLU)-1.5) > 1e-6 {
		t.Fatalf("stormy MLU = %v, want 1.5", stormy.MLU)
	}
	if len(stormy.Splits[2]) != len(otherBefore) || stormy.Splits[2][0].Frac != otherBefore[0].Frac {
		t.Fatalf("unaffected commodity's split changed: %+v vs %+v", stormy.Splits[2], otherBefore)
	}
	// A Solution is a snapshot: the update replaced it and left the
	// clear-sky one intact, so callers may keep it (the workload pipeline
	// replays it while the same controller drives a reoptimization plan).
	if len(clear.Splits[1]) != 2 || clear.Splits[1][0].Frac != clearFracs[0] ||
		clear.Splits[1][1].Frac != clearFracs[1] || clear.MLU != clearMLU {
		t.Fatalf("update mutated the clear-sky solution: %+v, MLU %v", clear.Splits[1], clear.MLU)
	}

	// Storm passes: capacity restored, the split must rebalance.
	affected, err = ctrl.UpdateCapacities(links)
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 1 || affected[0] != 1 {
		t.Fatalf("restore affected = %v, want [1]", affected)
	}
	restored := ctrl.Solution()
	if len(restored.Splits[1]) != 2 {
		t.Fatalf("restored splits = %+v, want both arms again", restored.Splits[1])
	}
	if math.Abs(float64(restored.MLU)-0.75) > 1e-6 {
		t.Fatalf("restored MLU = %v, want 0.75", restored.MLU)
	}

	// No-op update: nothing affected.
	affected, err = ctrl.UpdateCapacities(links)
	if err != nil {
		t.Fatal(err)
	}
	if affected != nil {
		t.Fatalf("no-op update affected %v", affected)
	}
}

// TestControllerReenumeratesWhenAllCandidatesDie: if every clear-sky
// candidate crosses downed links, the controller re-runs Yen on the
// degraded topology instead of dropping the commodity.
func TestControllerReenumeratesWhenAllCandidatesDie(t *testing.T) {
	// 0→3 via 1 (fast, the only candidate under a tight stretch cap) plus a
	// long detour via 2 that the cap excludes at clear sky.
	links := []netsim.TopoLink{
		{A: 0, B: 1, RateBps: 10e6, PropDelay: 0.001},
		{A: 1, B: 3, RateBps: 10e6, PropDelay: 0.001},
		{A: 0, B: 2, RateBps: 10e6, PropDelay: 0.01},
		{A: 2, B: 3, RateBps: 10e6, PropDelay: 0.01},
	}
	comms := []netsim.Commodity{{Flow: 1, Src: 0, Dst: 3, Demand: 1e6}}
	ctrl, err := NewController(4, links, comms, Config{Stretch: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ctrl.Solution().Splits[1]); n != 1 {
		t.Fatalf("clear-sky candidates = %d, want 1 (stretch cap)", n)
	}
	degraded := append([]netsim.TopoLink(nil), links...)
	degraded[0].RateBps = 0
	if _, err := ctrl.UpdateCapacities(degraded); err != nil {
		t.Fatal(err)
	}
	sp := ctrl.Solution().Splits[1]
	if len(sp) != 1 || sp[0].Path[1] != 2 {
		t.Fatalf("degraded splits = %+v, want the re-enumerated detour via 2", sp)
	}
}

func TestUpdateCapacitiesRejectsTopologyChange(t *testing.T) {
	links := diamond()
	ctrl, err := NewController(4, links, []netsim.Commodity{{Flow: 1, Src: 0, Dst: 3, Demand: 1e6}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.UpdateCapacities(links[:2]); err == nil {
		t.Fatal("no error for a shorter link list")
	}
	swapped := append([]netsim.TopoLink(nil), links...)
	swapped[0].A, swapped[0].B = 2, 3
	if _, err := ctrl.UpdateCapacities(swapped); err == nil {
		t.Fatal("no error for changed endpoints")
	}

	// A rejected update must not leak partial capacity changes: this list
	// changes link 0's rate but is invalid at link 1, so after the
	// rejection a clean update with the original capacities must see
	// nothing to do.
	bad := append([]netsim.TopoLink(nil), links...)
	bad[0].RateBps = 1e6
	bad[1].A, bad[1].B = 3, 2
	if _, err := ctrl.UpdateCapacities(bad); err == nil {
		t.Fatal("no error for mixed rate-change + endpoint-change list")
	}
	affected, err := ctrl.UpdateCapacities(links)
	if err != nil {
		t.Fatal(err)
	}
	if affected != nil {
		t.Fatalf("rejected update mutated capacities: clean update affected %v", affected)
	}
}

func TestUnroutableCommodityOmitted(t *testing.T) {
	// Node 4 is isolated.
	comms := []netsim.Commodity{
		{Flow: 1, Src: 0, Dst: 3, Demand: 1e6},
		{Flow: 2, Src: 0, Dst: 4, Demand: 1e6},
	}
	sol, err := Solve(5, diamond(), comms, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sol.Splits[2]; ok {
		t.Fatal("unroutable commodity got a split")
	}
	if _, ok := sol.Splits[1]; !ok {
		t.Fatal("routable commodity missing")
	}
}

// arms joins nodes 0 and 3 by four disjoint two-hop arms of 4, 5, 6 and
// 7 ms, through nodes 1, 2, 4 and 5; node 6 is isolated.
func arms() []netsim.TopoLink {
	var links []netsim.TopoLink
	for i, mid := range []int{1, 2, 4, 5} {
		d := units.Seconds(0.002 + 0.0005*float64(i))
		links = append(links,
			netsim.TopoLink{A: 0, B: mid, RateBps: 10e6, PropDelay: d},
			netsim.TopoLink{A: mid, B: 3, RateBps: 10e6, PropDelay: d})
	}
	return links
}

// armsComms are the arms' commodities at stretch 3: 0→3 has four
// candidates, 1→2 six (two tied at 4.5 ms), 0→6 none and 0→1 one (its
// detours, 7 ms and up, exceed 3 × 2 ms).
func armsComms() []netsim.Commodity {
	return []netsim.Commodity{
		{Flow: 1, Src: 0, Dst: 3, Demand: 1e6},
		{Flow: 2, Src: 1, Dst: 2, Demand: 1e6},
		{Flow: 3, Src: 0, Dst: 6, Demand: 1e6},
		{Flow: 4, Src: 0, Dst: 1, Demand: 1e6},
	}
}

// samePools fails unless got and want hold the same paths, edge for edge
// with the same delay bits, commodity by commodity.
func samePools(t *testing.T, what string, got, want [][]Path) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d commodities, want %d", what, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: commodity %d has %d paths, want %d", what, i, len(got[i]), len(want[i]))
		}
		for j, p := range want[i] {
			q := got[i][j]
			if !slices.Equal(q.edges, p.edges) || !slices.Equal(q.Nodes, p.Nodes) ||
				math.Float64bits(q.Delay) != math.Float64bits(p.Delay) {
				t.Fatalf("%s: commodity %d path %d = %v (%v s), want %v (%v s)", what, i, j, q.Nodes, q.Delay, p.Nodes, p.Delay)
			}
		}
	}
}

// TestCandidatesMatchesControllerPool: a controller's Candidates(k) is, up
// to its K, the prefix of its own pool, and deeper the pool a controller
// built at K k splits over, aligned positionally with the commodities; an
// unroutable commodity gets no paths at any k.
func TestCandidatesMatchesControllerPool(t *testing.T) {
	const K = 2
	comms := armsComms()
	ctrl, err := NewController(7, arms(), comms, Config{K: K, Stretch: 3})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 7; k++ {
		want := make([][]Path, len(comms))
		if k <= K {
			for i := range want {
				want[i] = ctrl.comms[i].cands[:min(k, len(ctrl.comms[i].cands))]
			}
		} else {
			deep, err := NewController(7, arms(), comms, Config{K: k, Stretch: 3})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				want[i] = deep.comms[i].cands
			}
		}
		got := ctrl.Candidates(k)
		samePools(t, fmt.Sprintf("Candidates(%d)", k), got, want)
		if len(got[2]) != 0 {
			t.Fatalf("Candidates(%d): unroutable commodity got %d paths", k, len(got[2]))
		}
	}
	if got := ctrl.Candidates(7); len(got[0]) != 4 || len(got[1]) != 6 || len(got[3]) != 1 {
		t.Fatalf("Candidates(7) has %d, %d and %d paths, want 4, 6 and 1", len(got[0]), len(got[1]), len(got[3]))
	}
}

// TestCandidatesSurviveReenumeration: an update that kills every candidate
// of a commodity re-enumerates it on the degraded topology, and Candidates
// still answers with the clear-sky pool, at K and deeper, for a full pool
// and for one shorter than K.
func TestCandidatesSurviveReenumeration(t *testing.T) {
	const K = 2
	ctrl, err := NewController(7, arms(), armsComms(), Config{K: K, Stretch: 3})
	if err != nil {
		t.Fatal(err)
	}
	atK, deep := ctrl.Candidates(K), ctrl.Candidates(K+4)
	// Down 0-1 and 0-2: both of 0→3's candidates, the 4 and 5 ms arms,
	// and 0→1's one die.
	links := arms()
	links[0].RateBps, links[2].RateBps = 0, 0
	if _, err := ctrl.UpdateCapacities(links); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ i, want int }{{0, 2 + K}, {3, 1 + K}} {
		if n := len(ctrl.comms[c.i].cands); n != c.want {
			t.Fatalf("commodity %d holds %d candidates after the update, want %d (the pool and a re-enumeration)", c.i, n, c.want)
		}
	}
	samePools(t, "Candidates(K) after the update", ctrl.Candidates(K), atK)
	samePools(t, "Candidates(K+4) after the update", ctrl.Candidates(K+4), deep)
}

// TestLPSolvesCounter: the process-wide simplex counter must advance on a
// Solve that reaches the LP — the observable fast-reroute tests use to pin
// "zero LP solves on the event path".
func TestLPSolvesCounter(t *testing.T) {
	before := LPSolves()
	// Two commodities with real demand: the multi-candidate LP path runs.
	comms := []netsim.Commodity{
		{Flow: 1, Src: 0, Dst: 3, Demand: 15e6},
		{Flow: 2, Src: 1, Dst: 2, Demand: 5e6},
	}
	if _, err := Solve(4, diamond(), comms, Config{}); err != nil {
		t.Fatal(err)
	}
	if LPSolves() == before {
		t.Fatal("LPSolves did not advance across an LP-backed Solve")
	}
}

func TestSolveShortestSinglePath(t *testing.T) {
	// On the diamond, even an overloaded commodity stays on the single
	// fastest arm: at K 1, the workload pipeline's fiber baseline, Solve
	// never splits.
	comms := []netsim.Commodity{{Flow: 1, Src: 0, Dst: 3, Demand: 15e6}}
	sol, err := Solve(4, diamond(), comms, Config{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp := sol.Splits[1]
	if len(sp) != 1 || sp[0].Frac != 1 {
		t.Fatalf("expected one full-fraction path, got %+v", sp)
	}
	want := []int{0, 1, 3}
	for i, v := range want {
		if sp[0].Path[i] != v {
			t.Fatalf("expected the fast arm %v, got %v", want, sp[0].Path)
		}
	}
	if sol.MLU < 1.4 {
		t.Fatalf("15 Mbps over a 10 Mbps single path should predict MLU 1.5, got %v", sol.MLU)
	}
}
