package netsim

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"cisp/internal/traffic"
	"cisp/internal/units"
)

// diamond: 0 -(fast but narrow)- 1 -  3 and 0 - 2 - 3 (slow but wide).
func diamondLinks() []TopoLink {
	return []TopoLink{
		{A: 0, B: 1, RateBps: 10e6, PropDelay: 0.001, QueueCap: 100},
		{A: 1, B: 3, RateBps: 10e6, PropDelay: 0.001, QueueCap: 100},
		{A: 0, B: 2, RateBps: 100e6, PropDelay: 0.010, QueueCap: 100},
		{A: 2, B: 3, RateBps: 100e6, PropDelay: 0.010, QueueCap: 100},
	}
}

func TestShortestPathPicksLowDelay(t *testing.T) {
	var sim Simulator
	nw := NewNetwork(&sim, 4)
	links := diamondLinks()
	BuildTopology(nw, links)
	paths := InstallRoutes(nw, links, []Commodity{{Flow: 1, Src: 0, Dst: 3, Demand: 1e6}}, ShortestPath)
	p := paths[1]
	if len(p) != 3 || p[1] != 1 {
		t.Fatalf("shortest path = %v, want via node 1 (2 ms vs 20 ms)", p)
	}
}

func TestMinMaxUtilSpreadsLoad(t *testing.T) {
	var sim Simulator
	nw := NewNetwork(&sim, 4)
	// Equal 10 Mbps capacities, different delays: shortest-path stacks both
	// flows on the fast path (160% util); min-max must split them.
	links := []TopoLink{
		{A: 0, B: 1, RateBps: 10e6, PropDelay: 0.001, QueueCap: 100},
		{A: 1, B: 3, RateBps: 10e6, PropDelay: 0.001, QueueCap: 100},
		{A: 0, B: 2, RateBps: 10e6, PropDelay: 0.010, QueueCap: 100},
		{A: 2, B: 3, RateBps: 10e6, PropDelay: 0.010, QueueCap: 100},
	}
	BuildTopology(nw, links)
	comms := []Commodity{
		{Flow: 1, Src: 0, Dst: 3, Demand: 8e6},
		{Flow: 2, Src: 0, Dst: 3, Demand: 8e6},
	}
	paths := InstallRoutes(nw, links, comms, MinMaxUtilization)
	if len(paths) != 2 {
		t.Fatalf("routed %d commodities", len(paths))
	}
	via := map[int]bool{}
	for _, p := range paths {
		via[p[1]] = true
	}
	if !via[1] || !via[2] {
		t.Fatalf("min-max routing did not spread load: %v", paths)
	}
}

// TestMinMaxDemandTiesKeepOrder: commodities of equal demand route in
// their list order. Two equal-capacity arms take the commodities of each
// demand in turn, the fast arm first, so within a demand the k-th one
// routed takes the fast arm when k is even and a reordering of the ties
// shows in the paths. Go's unstable sort reorders these ties.
func TestMinMaxDemandTiesKeepOrder(t *testing.T) {
	links := []TopoLink{
		{A: 0, B: 1, RateBps: 10e6, PropDelay: 0.001},
		{A: 1, B: 3, RateBps: 10e6, PropDelay: 0.001},
		{A: 0, B: 2, RateBps: 10e6, PropDelay: 0.010},
		{A: 2, B: 3, RateBps: 10e6, PropDelay: 0.010},
	}
	var comms []Commodity
	for k := 0; k < 16; k++ {
		comms = append(comms, Commodity{Flow: 100 - k, Src: 0, Dst: 3, Demand: units.BitsPerSecond(1e5 * float64(1+k%2))})
	}
	paths := ComputeRoutes(4, links, comms, MinMaxUtilization)
	routed := map[units.BitsPerSecond]int{}
	for _, c := range comms {
		k := routed[c.Demand]
		routed[c.Demand]++
		if want := 1 + k%2; paths[c.Flow][1] != want {
			t.Fatalf("flow %d, the %d-th of demand %v, routed via %d, want %d", c.Flow, k, c.Demand, paths[c.Flow][1], want)
		}
	}
}

func TestThroughputOptimalPrefersWide(t *testing.T) {
	var sim Simulator
	nw := NewNetwork(&sim, 4)
	links := diamondLinks()
	BuildTopology(nw, links)
	paths := InstallRoutes(nw, links, []Commodity{{Flow: 1, Src: 0, Dst: 3, Demand: 1e6}}, ThroughputOptimal)
	p := paths[1]
	if len(p) != 3 || p[1] != 2 {
		t.Fatalf("widest path = %v, want via node 2 (100 Mbps)", p)
	}
}

func TestSchemesDeliverTraffic(t *testing.T) {
	for _, scheme := range []Scheme{ShortestPath, MinMaxUtilization, ThroughputOptimal} {
		var sim Simulator
		nw := NewNetwork(&sim, 4)
		links := diamondLinks()
		BuildTopology(nw, links)
		comms := []Commodity{
			{Flow: 1, Src: 0, Dst: 3, Demand: 2e6},
			{Flow: 2, Src: 3, Dst: 0, Demand: 2e6},
		}
		InstallRoutes(nw, links, comms, scheme)
		mon := NewFlowMonitor()
		rng := rand.New(rand.NewSource(1))
		for _, c := range comms {
			s := &UDPSource{Net: nw, Flow: c.Flow, Src: c.Src, Dst: c.Dst,
				RateBps: float64(c.Demand), PktSize: 500, Poisson: true, Rng: rng, Monitor: mon}
			s.Start()
		}
		sim.Run(0.5)
		agg := mon.Aggregate()
		if agg.RxPackets == 0 {
			t.Fatalf("%v delivered nothing", scheme)
		}
		if agg.LossRate() > 0.05 {
			t.Fatalf("%v lost %.1f%% at low load", scheme, agg.LossRate()*100)
		}
	}
}

func TestSchemeString(t *testing.T) {
	if ShortestPath.String() != "shortest-path" || Scheme(99).String() != "unknown" {
		t.Fatal("Scheme.String broken")
	}
}

func TestUnreachableCommodityOmitted(t *testing.T) {
	var sim Simulator
	nw := NewNetwork(&sim, 3)
	links := []TopoLink{{A: 0, B: 1, RateBps: 1e6, PropDelay: 0.001, QueueCap: 10}}
	BuildTopology(nw, links)
	paths := InstallRoutes(nw, links, []Commodity{{Flow: 1, Src: 0, Dst: 2, Demand: 1e5}}, ShortestPath)
	if _, ok := paths[1]; ok {
		t.Fatal("unreachable commodity got a path")
	}
}

// tiedMesh draws a seeded n-node mesh with small-integer delays (0–3 s,
// so path sums are exact and equal-delay ties are common) and leaves the
// last node isolated, so some commodities are unroutable. A node pair
// drawn again merges into its first link at the lesser delay, so the mesh
// is simple.
func tiedMesh(n int, seed int64) []TopoLink {
	rng := rand.New(rand.NewSource(seed))
	var links []TopoLink
	for a := 0; a < n-1; a++ {
		for k := 0; k < 3; k++ {
			b := rng.Intn(n - 1)
			if b == a {
				continue
			}
			d := units.Seconds(rng.Intn(4))
			if i := slices.IndexFunc(links, func(l TopoLink) bool { return l.A == b && l.B == a || l.A == a && l.B == b }); i >= 0 {
				links[i].PropDelay = min(links[i].PropDelay, d)
				continue
			}
			links = append(links, TopoLink{A: a, B: b, RateBps: 1e6, PropDelay: d})
		}
	}
	return links
}

// TestShortestRoutesPinned pins ComputeRoutes(ShortestPath) on seeded
// tie-heavy meshes: every ordered pair's path, or its absence, hashed in
// flow order. The tie rule (lowest node index settles first, strict
// relaxation in link order) decides which of several equal-delay paths
// each commodity gets, so any change to the search shows here.
func TestShortestRoutesPinned(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed int64
		want uint64
	}{
		{8, 1, 0xfc3097af4d36c195},
		{24, 2, 0x396cccdd8ae80688},
		{60, 3, 0x659b40b4e27cb774},
	} {
		links := tiedMesh(tc.n, tc.seed)
		var comms []Commodity
		for _, k := range rand.New(rand.NewSource(tc.seed)).Perm(tc.n * tc.n) {
			if src, dst := k/tc.n, k%tc.n; src != dst {
				comms = append(comms, Commodity{Flow: len(comms) + 1, Src: src, Dst: dst})
			}
		}
		paths := ComputeRoutes(tc.n, links, comms, ShortestPath)
		h := fnv.New64a()
		var b [8]byte
		put := func(v int) {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
		for _, c := range comms {
			p, ok := paths[c.Flow]
			if !ok {
				put(-1)
				continue
			}
			put(len(p))
			for _, v := range p {
				put(v)
			}
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("mesh n=%d seed=%d: %d of %d commodities routed, hash %#x; want %#x",
				tc.n, tc.seed, len(paths), len(comms), got, tc.want)
		}
	}
}

// TestDemandCommoditiesNumbering: IDs run from first over every positive
// pair, flows or not, and last lets the next matrix continue the count.
func TestDemandCommoditiesNumbering(t *testing.T) {
	m := traffic.New(4)
	m.Set(0, 1, 6)
	m.Set(0, 3, 1)
	m.Set(2, 3, 3)
	comms, last := DemandCommodities(m, 3, 1000, 2, 7) // pair 0-3 draws no flow
	want := []Commodity{
		{Flow: 7, Src: 0, Dst: 1, Demand: 8000, Count: 2, FlowBytes: 1000},
		{Flow: 9, Src: 2, Dst: 3, Demand: 4000, Count: 1, FlowBytes: 1000},
	}
	if last != 9 || len(comms) != len(want) {
		t.Fatalf("got %+v, last %d; want %+v, last 9", comms, last, want)
	}
	for i := range want {
		if comms[i] != want[i] {
			t.Fatalf("commodity %d: got %+v, want %+v", i, comms[i], want[i])
		}
	}
	if comms, last := DemandCommodities(traffic.New(3), 5, 1000, 2, 7); comms != nil || last != 6 {
		t.Fatalf("empty matrix: got %+v, last %d; want none, last 6", comms, last)
	}
}
