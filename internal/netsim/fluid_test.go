package netsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"cisp/internal/units"
)

func almostEq(a, b, rel float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= rel*m
}

func TestFluidSingleLinkFairShare(t *testing.T) {
	// Three flows on one 30 Mbps link: 10 Mbps each.
	f := NewFluid(2, []TopoLink{{A: 0, B: 1, RateBps: 30e6}})
	r := f.AddRoute([]int{0, 1})
	for i := 0; i < 3; i++ {
		f.Start(r, 1e6)
	}
	f.Run(0)
	if !almostEq(f.RouteRate(r), 10e6, 1e-12) {
		t.Fatalf("per-flow rate = %v, want 10 Mbps", f.RouteRate(r))
	}
}

func TestFluidMaxMinTwoBottlenecks(t *testing.T) {
	// Chain 0-1-2: link 0→1 at 20 Mbps, 1→2 at 10 Mbps. Two flows 0→2 and
	// one flow 0→1. Max-min: the 0→2 flows bottleneck on 1→2 at 5 Mbps
	// each; the 0→1 flow gets the 20 - 10 = 10 Mbps residual.
	f := NewFluid(3, []TopoLink{
		{A: 0, B: 1, RateBps: 20e6},
		{A: 1, B: 2, RateBps: 10e6},
	})
	long := f.AddRoute([]int{0, 1, 2})
	short := f.AddRoute([]int{0, 1})
	f.Start(long, 1e9)
	f.Start(long, 1e9)
	f.Start(short, 1e9)
	f.Run(0)
	if !almostEq(f.RouteRate(long), 5e6, 1e-12) {
		t.Fatalf("long route rate = %v, want 5 Mbps", f.RouteRate(long))
	}
	if !almostEq(f.RouteRate(short), 10e6, 1e-12) {
		t.Fatalf("short route rate = %v, want 10 Mbps", f.RouteRate(short))
	}
}

func TestFluidDepartureSpeedsUpSurvivor(t *testing.T) {
	// Two flows share a 10 Mbps link; the 1 MB flow finishes first, then
	// the 4 MB flow runs at full rate. Analytic FCTs:
	//   phase 1: both at 5 Mbps (0.625 MB/s) → flow A (1 MB) done at 1.6 s.
	//   phase 2: B has 3 MB left at 10 Mbps (1.25 MB/s) → +2.4 s → 4.0 s.
	f := NewFluid(2, []TopoLink{{A: 0, B: 1, RateBps: 10e6}})
	r := f.AddRoute([]int{0, 1})
	a := f.Start(r, 1e6)
	b := f.Start(r, 4e6)
	f.Run(10)
	fa, okA := f.FCT(a)
	fb, okB := f.FCT(b)
	if !okA || !okB {
		t.Fatalf("flows did not complete: %v %v", okA, okB)
	}
	if !almostEq(fa, 1.6, 1e-9) {
		t.Fatalf("FCT A = %v, want 1.6", fa)
	}
	if !almostEq(fb, 4.0, 1e-9) {
		t.Fatalf("FCT B = %v, want 4.0", fb)
	}
}

func TestFluidLateArrivalSlowsDown(t *testing.T) {
	// A 10 Mbps link; flow A (5 MB) alone until B arrives at t=1.
	//   [0,1): A at 10 Mbps → 1.25 MB served.
	//   [1,…): both at 5 Mbps. A has 3.75 MB left → +6 s → FCT 7 s.
	//   B (2.5 MB) at 0.625 MB/s from t=1 → 4 s → done t=5 → A speeds up?
	// Careful: B finishes at t=5 (2.5 MB at 0.625 MB/s), A has served
	// 1.25 + 2.5 = 3.75 MB by then, 1.25 MB left at full 1.25 MB/s → +1 s.
	// FCT A = 6 s, FCT B = 4 s.
	f := NewFluid(2, []TopoLink{{A: 0, B: 1, RateBps: 10e6}})
	r := f.AddRoute([]int{0, 1})
	a := f.Start(r, 5e6)
	b := f.StartAt(r, 2.5e6, 1.0)
	f.Run(20)
	fa, _ := f.FCT(a)
	fb, _ := f.FCT(b)
	if !almostEq(fa, 6.0, 1e-9) {
		t.Fatalf("FCT A = %v, want 6.0", fa)
	}
	if !almostEq(fb, 4.0, 1e-9) {
		t.Fatalf("FCT B = %v, want 4.0 (measured from its arrival)", fb)
	}
}

func TestFluidServedBytesMidRun(t *testing.T) {
	f := NewFluid(2, []TopoLink{{A: 0, B: 1, RateBps: 8e6}}) // 1 MB/s
	r := f.AddRoute([]int{0, 1})
	a := f.Start(r, 10e6)
	f.Run(3)
	if got := f.ServedBytes(a); !almostEq(got, 3e6, 1e-9) {
		t.Fatalf("served = %v bytes after 3 s at 1 MB/s, want 3e6", got)
	}
	if _, done := f.FCT(a); done {
		t.Fatal("flow should still be running")
	}
}

func TestFluidServedBytesBeforeArrival(t *testing.T) {
	// A flow scheduled past the horizon has transferred nothing — it must
	// not report its full payload as served.
	f := NewFluid(2, []TopoLink{{A: 0, B: 1, RateBps: 8e6}})
	r := f.AddRoute([]int{0, 1})
	a := f.StartAt(r, 1000, 10)
	f.Run(1)
	if got := f.ServedBytes(a); got != 0 {
		t.Fatalf("served = %v bytes for a flow that never arrived, want 0", got)
	}
}

func TestFluidConservation(t *testing.T) {
	// Random topology + flows: aggregate allocated rate on every link must
	// not exceed its capacity, and every allocation must be positive.
	rng := rand.New(rand.NewSource(7))
	var links []TopoLink
	const n = 20
	for i := 1; i < n; i++ {
		links = append(links, TopoLink{A: rng.Intn(i), B: i, RateBps: units.Mbps(float64(10 + rng.Intn(90)))})
	}
	f := NewFluid(n, links)
	// Routes along the tree via parent hops: use ComputeRoutes for paths.
	comms := make([]Commodity, 0, 30)
	for k := 0; k < 30; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		comms = append(comms, Commodity{Flow: k, Src: a, Dst: b})
	}
	paths := ComputeRoutes(n, links, comms, ShortestPath)
	routeOf := map[int]int{}
	for _, c := range comms {
		p := paths[c.Flow]
		if p == nil {
			continue
		}
		r := f.AddRoute(p)
		routeOf[c.Flow] = r
		for j := 0; j < 1+rng.Intn(5); j++ {
			f.Start(r, 1e9)
		}
	}
	f.Run(0)
	load := make([]float64, len(f.links))
	for gi := range f.groups {
		g := &f.groups[gi]
		if g.n == 0 {
			continue
		}
		if g.rate <= 0 {
			t.Fatalf("group %d allocated non-positive rate %v", gi, g.rate)
		}
		for _, li := range g.links {
			load[li] += g.rate * float64(g.n)
		}
	}
	for li, c := range f.capBps {
		if load[li] > c*(1+1e-9) {
			t.Fatalf("link %d overloaded: %v > %v", li, load[li], c)
		}
	}
}

func TestFluidDeterministic(t *testing.T) {
	run := func() []float64 {
		f := NewFluid(3, []TopoLink{
			{A: 0, B: 1, RateBps: 20e6},
			{A: 1, B: 2, RateBps: 10e6},
		})
		long := f.AddRoute([]int{0, 1, 2})
		short := f.AddRoute([]int{0, 1})
		rng := rand.New(rand.NewSource(3))
		var ids []int
		for i := 0; i < 500; i++ {
			r := long
			if i%2 == 0 {
				r = short
			}
			ids = append(ids, f.StartAt(r, 1e5+1e6*rng.Float64(), rng.Float64()))
		}
		f.Run(1e6)
		out := make([]float64, len(ids))
		for i, id := range ids {
			out[i], _ = f.FCT(id)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fluid run not deterministic at flow %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// syntheticBackbone builds a deterministic ~100-node geometric mesh that
// stands in for a designed topology in package-local scale tests (the real
// designed-topology benchmark lives in the repo root bench suite).
func syntheticBackbone(n int) []TopoLink {
	rng := rand.New(rand.NewSource(11))
	xs := make([][2]float64, n)
	for i := range xs {
		xs[i] = [2]float64{rng.Float64(), rng.Float64()}
	}
	var links []TopoLink
	seen := map[[2]int]bool{}
	addTo := func(i, j int) {
		key := [2]int{min(i, j), max(i, j)}
		if i == j || seen[key] {
			return
		}
		seen[key] = true
		links = append(links, TopoLink{
			A: key[0], B: key[1],
			RateBps:   units.Gbps(float64(50 + rng.Intn(150))),
			PropDelay: 0.001,
		})
	}
	// Connected ring + nearest-neighbor chords: node degree ~4.
	for i := 0; i < n; i++ {
		addTo(i, (i+1)%n)
	}
	for i := 0; i < n; i++ {
		bestJ, bestD := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			dx, dy := xs[i][0]-xs[j][0], xs[i][1]-xs[j][1]
			if d := dx*dx + dy*dy; d < bestD && !seen[[2]int{min(i, j), max(i, j)}] {
				bestJ, bestD = j, d
			}
		}
		if bestJ >= 0 {
			addTo(i, bestJ)
		}
	}
	return links
}

// TestFluidMillionFlowSmoke is the scale guard for the §6.4 replay path: one
// million concurrent flows over a ~100-node backbone must admit, allocate
// and begin completing within a short wall-clock budget. It runs a short
// horizon — enough to cover the initial allocation plus a wave of
// departures — so CI catches any regression that would make the
// 10⁵–10⁶-flow path unusable.
func TestFluidMillionFlowSmoke(t *testing.T) {
	const (
		nNodes = 100
		nFlows = 1_000_000
	)
	links := syntheticBackbone(nNodes)
	f := NewFluid(nNodes, links)

	rng := rand.New(rand.NewSource(5))
	var comms []Commodity
	for k := 0; k < 2000; k++ {
		a, b := rng.Intn(nNodes), rng.Intn(nNodes)
		if a == b {
			continue
		}
		comms = append(comms, Commodity{Flow: k, Src: a, Dst: b})
	}
	paths := ComputeRoutes(nNodes, links, comms, ShortestPath)
	var routes []int
	for _, c := range comms {
		if p := paths[c.Flow]; p != nil {
			routes = append(routes, f.AddRoute(p))
		}
	}
	start := time.Now()
	for i := 0; i < nFlows; i++ {
		f.Start(routes[i%len(routes)], 1e6+float64(i%7)*1e5)
	}
	if f.Active() != 0 {
		t.Fatal("flows active before Run")
	}
	f.Run(0) // admit + initial allocation
	if f.Active() != nFlows {
		t.Fatalf("active = %d, want %d concurrent flows", f.Active(), nFlows)
	}
	// Advance a short horizon: some flows must complete, rates stay sane.
	f.Run(0.5)
	setup := time.Since(start)
	if f.Completed() == 0 {
		t.Fatal("no departures processed in the smoke horizon")
	}
	if f.Active()+f.Completed() != nFlows {
		t.Fatalf("flow accounting broken: %d active + %d done != %d",
			f.Active(), f.Completed(), nFlows)
	}
	t.Logf("1M flows over %d nodes: %v wall for admit + 0.5 s horizon, %d completed",
		nNodes, setup, f.Completed())
	if setup > 60*time.Second {
		t.Fatalf("million-flow smoke took %v — scale path has rotted", setup)
	}
}

// overloadedFluidScenario is the fluid engine's pinned workload: 80 seeded
// commodities on syntheticBackbone(100), every other one split over its
// shortest and widest paths, offering more than the backbone can carry in
// the horizon. Link 0 fails at 3 s and returns at 12 s, and at 3.5 s the
// first commodity is re-split onto its widest path alone.
func overloadedFluidScenario() *Scenario {
	const n = 100
	links := syntheticBackbone(n)
	rng := rand.New(rand.NewSource(21))
	var comms []Commodity
	for k := 0; len(comms) < 80; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		comms = append(comms, Commodity{Flow: k, Src: a, Dst: b, Demand: 1e9, Count: 10 + rng.Intn(40)})
	}
	short := ComputeRoutes(n, links, comms, ShortestPath)
	wide := ComputeRoutes(n, links, comms, ThroughputOptimal)
	splits := map[int][]SplitPath{}
	for i, c := range comms {
		if i%2 == 0 && !slices.Equal(short[c.Flow], wide[c.Flow]) {
			splits[c.Flow] = []SplitPath{{Path: short[c.Flow], Frac: 0.7}, {Path: wide[c.Flow], Frac: 0.3}}
		}
	}
	c0 := comms[0]
	return &Scenario{
		Nodes:       n,
		Links:       links,
		Comms:       comms,
		Scheme:      ShortestPath,
		Splits:      splits,
		Failures:    []FailureEvent{{Time: 3, Link: 0, Up: false}, {Time: 12, Link: 0, Up: true}},
		Updates:     []PathUpdate{{Time: 3.5, Flow: c0.Flow, Paths: []SplitPath{{Path: wide[c0.Flow], Frac: 1}}}},
		FlowBytes:   4 << 30,
		Horizon:     30,
		StartSpread: 10,
		Seed:        5,
	}
}

// fluidResultHash folds every flow's FCT and every link's utilization,
// bit for bit, into one FNV-64a sum.
func fluidResultHash(res *ScenarioResult) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, fr := range res.Flows {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(fr.FCT))
		h.Write(b[:])
	}
	for _, l := range res.LinkLoads {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(l.Utilization)))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestFluidScenarioPinned pins the fluid engine's output on an overloaded
// multipath scenario with a failure and a path update. Any change to the
// allocator or the event loop must leave these figures bit-identical.
func TestFluidScenarioPinned(t *testing.T) {
	res := overloadedFluidScenario().Run(FluidMode)
	const (
		wantEvents    = 3737
		wantCompleted = 1444
		wantHash      = 0x945614ecb1c158a9
	)
	if h := fluidResultHash(res); res.EventsProcessed != wantEvents || res.Completed != wantCompleted || h != wantHash {
		t.Errorf("%d events, %d of %d flows completed, hash %#x; want %d, %d, %#x",
			res.EventsProcessed, res.Completed, len(res.Flows), h, wantEvents, wantCompleted, uint64(wantHash))
	}
}

// TestFluidScaleInvariance: scaling every link rate and the flow size by
// the same power of two scales every rate, byte count and share exactly,
// so the run's times and utilizations must not move by a single bit.
// Scaling capacity alone changes every FCT, so an allocation that mixes in
// an unscaled quantity shows here.
func TestFluidScaleInvariance(t *testing.T) {
	base := overloadedFluidScenario().Run(FluidMode)
	for _, k := range []float64{2, 0.25} {
		sc := overloadedFluidScenario()
		for i := range sc.Links {
			sc.Links[i].RateBps = units.BitsPerSecond(k * float64(sc.Links[i].RateBps))
		}
		sc.FlowBytes = int(float64(sc.FlowBytes) * k)
		res := sc.Run(FluidMode)
		if res.EventsProcessed != base.EventsProcessed || res.Completed != base.Completed {
			t.Fatalf("×%v: %d events, %d completed; unscaled %d, %d",
				k, res.EventsProcessed, res.Completed, base.EventsProcessed, base.Completed)
		}
		for i := range res.Flows {
			if math.Float64bits(res.Flows[i].FCT) != math.Float64bits(base.Flows[i].FCT) {
				t.Fatalf("×%v: flow %d FCT %v, unscaled %v", k, i, res.Flows[i].FCT, base.Flows[i].FCT)
			}
		}
		for i := range res.LinkLoads {
			if res.LinkLoads[i] != base.LinkLoads[i] {
				t.Fatalf("×%v: link load %+v, unscaled %+v", k, res.LinkLoads[i], base.LinkLoads[i])
			}
		}
	}
}

// refRound is one bottleneck round of referenceRates: the link it drained,
// its per-flow share and the groups it froze, in order.
type refRound struct {
	link   int32
	share  float64
	groups []int32
}

// referenceRates is weighted progressive filling done the long way: every
// bottleneck round scans the whole link array, and link weights are summed
// afresh from the groups. It returns the per-flow max-min rate of every
// group in f's current state, computed with the same floating-point steps
// as FluidSim.recompute, its rounds, and every link's residual weight and
// capacity after the last round.
func referenceRates(f *FluidSim) (rates []float64, rounds []refRound, w, r []float64) {
	w = make([]float64, len(f.links))
	r = make([]float64, len(f.links))
	copy(r, f.capBps)
	remaining := 0
	for gi := range f.groups {
		if g := &f.groups[gi]; g.n > 0 {
			remaining++
			for _, li := range g.links {
				w[li] += float64(g.n)
			}
		}
	}
	rates = make([]float64, len(f.groups))
	frozen := make([]bool, len(f.groups))
	for remaining > 0 {
		best, bestShare := -1, math.Inf(1)
		for li := range f.links {
			if w[li] > 0 {
				share := r[li] / w[li]
				if share < 0 {
					share = 0
				}
				if share < bestShare {
					best, bestShare = li, share
				}
			}
		}
		if best < 0 {
			break
		}
		round := refRound{link: int32(best), share: bestShare}
		for _, gi := range f.links[best].groups {
			g := &f.groups[gi]
			if g.n == 0 || frozen[gi] {
				continue
			}
			frozen[gi] = true
			remaining--
			rates[gi] = bestShare
			round.groups = append(round.groups, gi)
			gw := float64(g.n)
			for _, li := range g.links {
				w[li] -= gw
				r[li] -= bestShare * gw
				if w[li] < 1e-9 {
					w[li] = 0
				}
				if r[li] < 0 {
					r[li] = 0
				}
			}
		}
		rounds = append(rounds, round)
	}
	return rates, rounds, w, r
}

// checkReference fails the test unless every group's rate in f equals the
// reference allocation's bit for bit, f's log of its last allocation holds
// the reference's rounds (the same bottlenecks and shares, and the same
// frozen groups in the same order, read from each bottleneck's log through
// roundGroups), and the state f keeps for its next allocation is that
// allocation's: see checkLinkLogs. It is called only when no edit is
// pending.
func checkReference(t *testing.T, f *FluidSim, when string) {
	t.Helper()
	rates, rounds, resW, resR := referenceRates(f)
	for gi := range f.groups {
		if got := f.groups[gi].rate; math.Float64bits(got) != math.Float64bits(rates[gi]) {
			t.Fatalf("%s: group %d rate %v, reference %v", when, gi, got, rates[gi])
		}
	}
	if f.nRounds != len(rounds) {
		t.Fatalf("%s: %d rounds logged, reference ran %d", when, f.nRounds, len(rounds))
	}
	for k, r := range rounds {
		var groups []int32
		for _, e := range f.roundGroups(k) {
			groups = append(groups, e.group)
		}
		if got := f.rounds[k]; got.link != r.link || math.Float64bits(got.share) != math.Float64bits(r.share) || !slices.Equal(groups, r.groups) {
			t.Fatalf("%s: round %d logged as link %d, share %v, groups %v; reference %d, %v, %v",
				when, k, got.link, got.share, groups, r.link, r.share, r.groups)
		}
	}
	checkLinkLogs(t, f, when, resW, resR)
}

// checkLinkLogs holds the per-link logs of f's last allocation to the
// reference residuals resW and resR: each link's log, replayed from the
// link's current weight and capacity with each entry's group weight and
// round share, must leave them bit for bit, so a wrong log fails even on a
// link the next recompute would not read. Every round must own a distinct
// slot that maps back to it, the other slots must be free, each round's
// entries in its bottleneck's log must be at least one, contiguous and
// last (so roundGroups reads them all), and each entry must name, in round
// order, the round that froze its group. No link may be left on the dirty
// list.
func checkLinkLogs(t *testing.T, f *FluidSim, when string, resW, resR []float64) {
	t.Helper()
	if f.nDirty != 0 {
		t.Fatalf("%s: %d links left on the dirty list", when, f.nDirty)
	}
	used := make([]bool, len(f.free))
	for _, s := range f.free[:f.nFree] {
		used[s] = true
	}
	roundOf := make([]int32, len(f.groups))
	for gi := range roundOf {
		roundOf[gi] = -1
	}
	for k, r := range f.rounds[:f.nRounds] {
		if used[r.slot] || f.slotRound[r.slot] != int32(k) {
			t.Fatalf("%s: round %d's slot %d is free, shared or maps to round %d", when, k, r.slot, f.slotRound[r.slot])
		}
		used[r.slot] = true
		l := &f.links[r.link]
		tail, all := f.roundGroups(k), 0
		for _, e := range l.log[:l.nLog] {
			if e.slot == r.slot {
				all++
			}
		}
		if len(tail) == 0 || len(tail) != all {
			t.Fatalf("%s: round %d has %d entries in its bottleneck %d's log, %d of them in its tail", when, k, all, r.link, len(tail))
		}
		for _, e := range tail {
			roundOf[e.group] = int32(k)
		}
	}
	if f.nFree+f.nRounds != len(f.free) {
		t.Fatalf("%s: %d free slots and %d rounds, want %d slots in all", when, f.nFree, f.nRounds, len(f.free))
	}
	for li := range f.links {
		l := &f.links[li]
		w, r := f.linkW[li], f.capBps[li]
		last := int32(0)
		for i, e := range l.log[:l.nLog] {
			k := f.slotRound[e.slot]
			if k < last || k >= int32(f.nRounds) || f.rounds[k].slot != e.slot || roundOf[e.group] != k {
				t.Fatalf("%s: link %d's entry %d %+v is not its round's (round %d of %d)", when, li, i, e, k, f.nRounds)
			}
			last = k
			gw := float64(f.groups[e.group].n)
			w -= gw
			r -= f.rounds[k].share * gw
			if w < 1e-9 {
				w = 0
			}
			if r < 0 {
				r = 0
			}
		}
		if math.Float64bits(w) != math.Float64bits(resW[li]) || math.Float64bits(r) != math.Float64bits(resR[li]) {
			t.Fatalf("%s: link %d's log leaves weight %v and capacity %v, reference %v and %v", when, li, w, r, resW[li], resR[li])
		}
	}
}

// randomMesh is a seeded connected mesh: a ring plus random chords, with
// link rates between 10 and 100 Mbps.
func randomMesh(rng *rand.Rand) (int, []TopoLink) {
	n := 6 + rng.Intn(20)
	seen := map[[2]int]bool{}
	var links []TopoLink
	add := func(a, b int) {
		key := [2]int{min(a, b), max(a, b)}
		if a == b || seen[key] {
			return
		}
		seen[key] = true
		links = append(links, TopoLink{A: key[0], B: key[1], RateBps: units.Mbps(float64(10 + rng.Intn(91))), PropDelay: 0.001})
	}
	for i := 0; i < n; i++ {
		add(i, (i+1)%n)
	}
	for k := 0; k < n; k++ {
		add(rng.Intn(n), rng.Intn(n))
	}
	return n, links
}

// randomWalk is a seeded simple path of 1 to 5 hops over the mesh's links,
// for routes registered mid-run.
func randomWalk(rng *rand.Rand, n int, links []TopoLink) []int {
	adj := make([][]int, n)
	for _, l := range links {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	path := []int{rng.Intn(n)}
	seen := map[int]bool{path[0]: true}
	for hops := 1 + rng.Intn(5); hops > 0; hops-- {
		var next []int
		for _, v := range adj[path[len(path)-1]] {
			if !seen[v] {
				next = append(next, v)
			}
		}
		if len(next) == 0 {
			break
		}
		v := next[rng.Intn(len(next))]
		seen[v] = true
		path = append(path, v)
	}
	return path
}

// TestFluidMatchesReference drives the engine through arrivals (bursts at
// one instant included), departures, link failures, restorations and
// resizes, reroutes onto existing routes and onto one registered mid-run,
// and a Recompute with nothing changed, on seeded random meshes with
// multipath routes. After every Run and Recompute each group's rate, the
// allocator's round log and every link's log must be bit-identical to the
// full-scan reference allocation (checkReference), and the departure heap
// must stay within its bound.
func TestFluidMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, links := randomMesh(rng)
		f := NewFluid(n, links)
		var comms []Commodity
		for k := 0; k < 3*n; k++ {
			if a, b := rng.Intn(n), rng.Intn(n); a != b {
				comms = append(comms, Commodity{Flow: k, Src: a, Dst: b, Demand: 1e6})
			}
		}
		short := ComputeRoutes(n, links, comms, ShortestPath)
		wide := ComputeRoutes(n, links, comms, ThroughputOptimal)
		// alt[r] is the route a reroute moves route r's flows onto: the
		// commodity's other path, or itself when both schemes agree.
		var alt []int
		for _, c := range comms {
			rs := f.AddRoute(short[c.Flow])
			rw := rs
			if !slices.Equal(wide[c.Flow], short[c.Flow]) {
				rw = f.AddRoute(wide[c.Flow])
			}
			alt = append(alt, rw)
			if rw != rs {
				alt = append(alt, rs)
			}
		}
		var ids []int
		for i := 0; i < 40*n; i++ {
			ids = append(ids, f.StartAt(rng.Intn(len(alt)), 1e4+2e6*rng.Float64(), 4*rng.Float64()))
		}

		check := func(when string) {
			t.Helper()
			checkReference(t, f, fmt.Sprintf("seed %d, %s", seed, when))
			if len(f.deps) > f.depsBound() {
				t.Fatalf("seed %d, %s: %d departure events queued, bound %d", seed, when, len(f.deps), f.depsBound())
			}
		}
		down := links[rng.Intn(len(links))]
		// Two bursts of arrivals at one instant each: one on a step
		// boundary, one between steps.
		for _, at := range []float64{3, 5.3} {
			for k := 0; k < 8; k++ {
				ids = append(ids, f.StartAt(rng.Intn(len(alt)), 1e4+2e6*rng.Float64(), at))
			}
		}
		resized := links[rng.Intn(len(links))]
		walk := randomWalk(rng, n, links)
		for step := 1; step <= 40; step++ {
			f.Run(0.25 * float64(step))
			check("run")
			switch step {
			case 6: // fail a link mid-run
				f.SetLinkRate(down.A, down.B, 0)
				f.SetLinkRate(down.B, down.A, 0)
			case 10: // move a third of the flows onto their other path
				for i, id := range ids {
					if i%3 == 0 {
						f.Reroute(id, alt[f.flowRoute[id]])
					}
				}
			case 14: // restore the failed link
				f.SetLinkRate(down.A, down.B, float64(down.RateBps))
				f.SetLinkRate(down.B, down.A, float64(down.RateBps))
			case 17: // resize one direction of a link to a third rate
				f.SetLinkRate(resized.A, resized.B, 0.37*float64(resized.RateBps))
			case 20: // register a route mid-run and move every fourth flow onto it
				r := f.AddRoute(walk)
				for i, id := range ids {
					if i%4 == 1 {
						f.Reroute(id, r)
					}
				}
			case 23: // nothing changed since the last allocation
			case 26: // fail the resized direction, and move flows back
				f.SetLinkRate(resized.A, resized.B, 0)
				for i, id := range ids {
					if i%4 == 1 {
						f.Reroute(id, i%len(alt))
					}
				}
			default:
				continue
			}
			f.Recompute()
			check("recompute")
		}
	}
}

// FuzzFluidMatchesReference runs a byte-driven script on a seeded random
// mesh: bursts of arrivals at one instant, a directed link taken to 0,
// restored, or resized to a third rate, reroutes onto an existing route or
// onto one registered mid-run, Recomputes (with or without edits) and Runs.
// After every Run and Recompute each group's rate, the allocator's round log
// and every link's log must equal the full-scan reference allocation's bit
// for bit (checkReference).
func FuzzFluidMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 2, 7, 9, 40, 7, 1, 5, 6, 7, 2, 3, 0, 4, 3, 7, 80})
	f.Add(int64(2), []byte{0, 0, 3, 1, 2, 3, 4, 0, 9, 3, 7, 20, 5, 1, 6, 6, 2, 5, 7, 30, 3, 8, 200, 7, 90})
	f.Add(int64(3), []byte{0, 10, 3, 8, 1, 5, 0, 10, 2, 9, 4, 7, 5, 1, 1, 6, 7, 15, 2, 5, 6, 7, 255})
	// A clean link turns dirty when a round crossing it is dropped, and
	// its catch-up skips that round's entries.
	f.Add(int64(1), []byte{8, 201, 1, 168, 37, 186, 5, 7, 208, 154})
	// A fresh round subtracts from a link that still owes logged entries.
	f.Add(int64(17), []byte{0, 2, 5, 76, 29, 229, 165, 126, 168, 64, 188, 12, 218, 25, 168, 7, 8, 7, 4})
	// Every route drains, so a recompute frees every round slot, and a
	// second burst's fresh rounds reuse them.
	f.Add(int64(4), []byte{0, 0, 2, 1, 90, 2, 40, 3, 200, 7, 255, 0, 0, 2, 1, 90, 4, 40, 3, 200, 7, 255})
	// A downed link's rate-0 routes replay in a later recompute.
	f.Add(int64(13), []byte{0, 2, 169, 24, 2, 202, 118, 1, 0, 184, 191, 124})
	// Four flows arrive at one instant and depart in turn. A departure
	// drops a round whose bottleneck a fresh round of the same recompute
	// has already drained and committed, so the bottleneck's log no longer
	// names the dropped round's route, which was frozen afresh.
	f.Add(int64(24), []byte{253, 121, 206, 68, 96, 24, 249, 217, 194, 40, 56, 72, 229, 30, 247, 63, 197})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 400 {
			script = script[:400]
		}
		rng := rand.New(rand.NewSource(seed))
		n, links := randomMesh(rng)
		fs := NewFluid(n, links)
		var routes []int
		for len(routes) < n {
			routes = append(routes, fs.AddRoute(randomWalk(rng, n, links)))
		}
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		var ids []int
		edited := false
		for len(script) > 0 {
			op := next() % 8
			switch op {
			case 0: // a burst of arrivals at one instant
				at := fs.Now() + float64(next())/64
				for k := 1 + next()%6; k > 0; k-- {
					ids = append(ids, fs.StartAt(routes[next()%len(routes)], 1e3+float64(next())*2e3, at))
				}
			case 1, 2, 3: // a directed link down, restored, or resized
				l := links[next()%len(links)]
				a, b := l.A, l.B
				if next()%2 == 1 {
					a, b = b, a
				}
				rate := 0.0
				switch op {
				case 2:
					rate = float64(l.RateBps)
				case 3:
					rate = float64(l.RateBps) * (0.1 + float64(next())/128)
				}
				fs.SetLinkRate(a, b, rate)
				edited = true
			case 4: // a flow moves onto an existing route
				if len(ids) > 0 {
					fs.Reroute(ids[next()%len(ids)], routes[next()%len(routes)])
					edited = true
				}
			case 5: // a route registered mid-run takes some flows
				r := fs.AddRoute(randomWalk(rng, n, links))
				routes = append(routes, r)
				for k := next() % 4; k > 0 && len(ids) > 0; k-- {
					fs.Reroute(ids[next()%len(ids)], r)
					edited = true
				}
			case 6: // recompute, possibly with nothing changed
				fs.Recompute()
				checkReference(t, fs, "recompute")
				edited = false
			case 7: // advance time: departures and due arrivals
				if edited {
					fs.Recompute()
					checkReference(t, fs, "recompute before run")
					edited = false
				}
				fs.Run(fs.Now() + float64(next())/32)
				checkReference(t, fs, "run")
			}
		}
	})
}

// TestFluidReplayWorkPinned is the allocator's work ratchet: the bottleneck
// rounds it runs fresh and those it replays from the previous allocation's
// log over overloadedFluidScenario. A change that falls back to full
// rescans, or dirties more links than an event changed, moves the split.
func TestFluidReplayWorkPinned(t *testing.T) {
	var fresh, replayed, subs int64
	defer SetFluidObserver(SetFluidObserver(func(f *FluidSim) {
		fresh, replayed = f.Rounds()
		subs = f.Subtractions()
	}))
	overloadedFluidScenario().Run(FluidMode)
	const wantFresh, wantReplayed, wantSubs = 9353, 143911, 275632
	if fresh != wantFresh || replayed != wantReplayed || subs != wantSubs {
		t.Errorf("%d fresh and %d replayed rounds, %d subtractions; want %d, %d and %d",
			fresh, replayed, subs, wantFresh, wantReplayed, wantSubs)
	}
}

// TestFluidRecomputeDoesNotAllocate pins the fluid engine's steady state at
// zero allocations: once the routes' threshold heaps and the departure
// heap have grown to a run's working set, an arrival or a departure and
// the recompute it triggers allocate nothing. The run replays identical
// waves of flows, each arriving at one instant and draining before the
// next, so the measured waves find every buffer grown.
func TestFluidRecomputeDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, links := randomMesh(rng)
	f := NewFluid(n, links)
	var routes []int
	for len(routes) < n {
		routes = append(routes, f.AddRoute(randomWalk(rng, n, links)))
	}
	sizes := make([]float64, 3*n)
	for i := range sizes {
		sizes[i] = 1e4 + 9e4*rng.Float64()
	}
	const period, waves = 10.0, 12
	for w := 0; w < waves; w++ {
		for i, b := range sizes {
			f.StartAt(routes[i%len(routes)], b, period*float64(w)+1)
		}
	}
	f.Run(4 * period)
	var events int64
	allocs := testing.AllocsPerRun(1, func() {
		events = -f.Processed()
		f.Run(f.Now() + 4*period)
		events += f.Processed()
	})
	if events != int64(8*len(sizes)) {
		t.Fatalf("%d events in four waves of %d flows, want every flow to arrive and depart", events, len(sizes))
	}
	if allocs != 0 {
		t.Fatalf("%.0f allocations over %d events, want 0 per event", allocs, events)
	}
}

// TestFluidRejectsBadRates: a NaN or infinite capacity never bottlenecks,
// so a route crossing only that link would keep its previous rate, and a
// negative one would act as a down link. NewFluid and SetLinkRate refuse
// them, naming the link and the rate.
func TestFluidRejectsBadRates(t *testing.T) {
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e6} {
		want := fmt.Sprintf("0->1 has rate %v bps", rate)
		mustPanic := func(what string, fn func()) {
			t.Helper()
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s(%v): no panic", what, rate)
				} else if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
					t.Errorf("%s(%v): panic %q does not mention %q", what, rate, msg, want)
				}
			}()
			fn()
		}
		mustPanic("NewFluid", func() {
			NewFluid(2, []TopoLink{{A: 0, B: 1, RateBps: units.BitsPerSecond(rate)}})
		})
		f := NewFluid(2, []TopoLink{{A: 0, B: 1, RateBps: 1e6}})
		r := f.AddRoute([]int{0, 1})
		f.Start(r, 1e6)
		f.Run(0)
		mustPanic("SetLinkRate", func() { f.SetLinkRate(0, 1, rate) })
	}
}

// TestFluidStartAtRejectsBadFlows: a NaN arrival time or payload never
// comes due and never ends Run, an infinite payload makes the served bytes
// and utilizations NaN, and an unregistered route failed only inside Run.
// StartAt refuses each, naming the flow and the value, and registers
// nothing; a payload of at most 0 bytes still counts as 1 byte. Reroute
// refuses an unknown flow, which failed with a bare index error, and an
// unregistered route, naming both.
func TestFluidStartAtRejectsBadFlows(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	f := NewFluid(2, []TopoLink{{A: 0, B: 1, RateBps: 8e6}})
	r := f.AddRoute([]int{0, 1})
	f.Start(r, 1e6)
	mustPanic := func(what, want string, fn func()) {
		t.Helper()
		defer func() {
			if p := recover(); p == nil {
				t.Errorf("%s: no panic", what)
			} else if msg := fmt.Sprint(p); !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q does not mention %q", what, msg, want)
			}
		}()
		fn()
	}
	for _, c := range []struct {
		route     int
		bytes, at float64
		want      string
	}{
		{r, 1e6, nan, "fluid flow 1 arrives at NaN s"},
		{r, nan, 0, "fluid flow 1 carries NaN bytes"},
		{r, inf, 0, "fluid flow 1 carries +Inf bytes"},
		{5, 1e6, 0, "fluid flow 1 on unregistered route 5"},
		{-1, 1e6, 0, "fluid flow 1 on unregistered route -1"},
	} {
		mustPanic(fmt.Sprintf("StartAt(%d, %v, %v)", c.route, c.bytes, c.at), c.want,
			func() { f.StartAt(c.route, c.bytes, c.at) })
	}
	for _, c := range []struct {
		flow, route int
		want        string
	}{
		{7, r, "reroute of unknown flow 7"},
		{-1, r, "reroute of unknown flow -1"},
		{0, 3, "reroute of flow 0 onto unregistered route 3"},
	} {
		mustPanic(fmt.Sprintf("Reroute(%d, %d)", c.flow, c.route), c.want,
			func() { f.Reroute(c.flow, c.route) })
	}
	zero, negInf := f.Start(r, 0), f.StartAt(r, -inf, 0)
	if zero != 1 || negInf != 2 {
		t.Fatalf("flows after the refusals got IDs %d and %d, want 1 and 2", zero, negInf)
	}
	f.Run(10)
	for _, id := range []int{zero, negInf} {
		if _, done := f.FCT(id); !done || f.ServedBytes(id) != 1 {
			t.Errorf("flow %d: completed %v with %v bytes served, want a 1-byte flow", id, done, f.ServedBytes(id))
		}
	}
}
