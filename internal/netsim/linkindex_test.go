package netsim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cisp/internal/netsim"
	"cisp/internal/te"
)

// scanLookup is the reference LinkIndex.Lookup: a scan of the duplex list
// for the link joining from and to, numbered 2i for link i's A→B
// direction and 2i+1 for its B→A direction.
func scanLookup(links []netsim.TopoLink, from, to int) (int32, bool) {
	for i, l := range links {
		if l.A == from && l.B == to {
			return int32(2 * i), true
		}
		if l.B == from && l.A == to {
			return int32(2*i + 1), true
		}
	}
	return 0, false
}

// randomDuplex draws a duplex list over n nodes whose last iso nodes have
// no link: distinct node pairs, each in a random orientation, in random
// order.
func randomDuplex(rng *rand.Rand, n, iso int) []netsim.TopoLink {
	var links []netsim.TopoLink
	for a := 0; a < n-iso; a++ {
		for b := a + 1; b < n-iso; b++ {
			if rng.Float64() < 0.3 {
				l := netsim.TopoLink{A: a, B: b, RateBps: 1e9, PropDelay: 0.001}
				if rng.Intn(2) == 0 {
					l.A, l.B = b, a
				}
				links = append(links, l)
			}
		}
	}
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	return links
}

// TestLinkIndexMatchesScan holds LinkIndex to a scan of the link list on
// seeded random duplex lists with isolated nodes: Lookup over every
// ordered pair in [-1, n]², out-of-range nodes included, and Out's
// insertion order. Lookup allocates nothing, and the packet Network
// resolves links through the same numbering.
func TestLinkIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(24)
		links := randomDuplex(rng, n, rng.Intn(3))
		x, err := netsim.NewLinkIndex(n, links)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var sim netsim.Simulator
		nw := netsim.NewNetwork(&sim, n)
		netsim.BuildTopology(nw, links)
		for from := -1; from <= n; from++ {
			for to := -1; to <= n; to++ {
				id, ok := x.Lookup(from, to)
				wantID, wantOK := scanLookup(links, from, to)
				if ok != wantOK || (ok && id != wantID) {
					t.Fatalf("trial %d: Lookup(%d, %d) = %d, %v; scan says %d, %v", trial, from, to, id, ok, wantID, wantOK)
				}
				if l := nw.Link(from, to); (l != nil) != ok || (ok && l != nw.Links()[id]) {
					t.Fatalf("trial %d: Network.Link(%d, %d) = %v, want directed link %d", trial, from, to, l, id)
				}
			}
		}
		for v := 0; v < n; v++ {
			var want []int32
			for i, l := range links {
				if l.A == v {
					want = append(want, int32(2*i))
				}
				if l.B == v {
					want = append(want, int32(2*i+1))
				}
			}
			if got := x.Out(v); !slices.Equal(got, want) {
				t.Fatalf("trial %d: Out(%d) = %v, want %v", trial, v, got, want)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() {
			for from := -1; from <= n; from++ {
				for to := -1; to <= n; to++ {
					x.Lookup(from, to)
				}
			}
		}); allocs != 0 {
			t.Fatalf("trial %d: Lookup allocates %v times per sweep", trial, allocs)
		}
	}
}

// TestLinkIndexRefusedByEveryConsumer: a repeated directed pair (the
// reverse of an earlier link, or a self-loop, whose two directions
// repeat) and an endpoint outside [0, n) are refused wherever a link list
// is indexed. The constructors that return an error return one naming the
// rule, and the engines and ComputeRoutes panic.
func TestLinkIndexRefusedByEveryConsumer(t *testing.T) {
	const n = 4 // node 3 is isolated
	base := []netsim.TopoLink{
		{A: 0, B: 1, RateBps: 1e9, PropDelay: 0.001},
		{A: 1, B: 2, RateBps: 1e9, PropDelay: 0.001},
		{A: 2, B: 0, RateBps: 1e9, PropDelay: 0.002},
	}
	comms := []netsim.Commodity{{Flow: 1, Src: 0, Dst: 2, Demand: 1e8}}
	for _, tc := range []struct {
		name string
		bad  netsim.TopoLink
		want string
	}{
		{"reverse of an earlier link", netsim.TopoLink{A: 1, B: 0, RateBps: 1e9}, "repeated directed link 1->0"},
		{"self-loop", netsim.TopoLink{A: 3, B: 3, RateBps: 1e9}, "repeated directed link 3->3"},
		{"endpoint past n", netsim.TopoLink{A: 2, B: n, RateBps: 1e9}, "outside node range"},
		{"negative endpoint", netsim.TopoLink{A: -1, B: 0, RateBps: 1e9}, "outside node range"},
	} {
		links := append(slices.Clone(base), tc.bad)
		check := func(who string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: %s: error %v, want one containing %q", tc.name, who, err, tc.want)
			}
		}
		mustPanic := func(who string, fn func()) {
			t.Helper()
			defer func() {
				t.Helper()
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
					t.Errorf("%s: %s: panic %q, want one containing %q", tc.name, who, msg, tc.want)
				}
			}()
			fn()
		}
		_, err := netsim.NewLinkIndex(n, links)
		check("NewLinkIndex", err)
		_, err = te.NewController(n, links, comms, te.Config{})
		check("te.NewController", err)
		check("ValidateSplits", netsim.ValidateSplits(n, links, comms, nil))
		mustPanic("NewFluid", func() { netsim.NewFluid(n, links) })
		mustPanic("ComputeRoutes", func() { netsim.ComputeRoutes(n, links, comms, netsim.ShortestPath) })
		mustPanic("Network.AddLink", func() {
			var sim netsim.Simulator
			nw := netsim.NewNetwork(&sim, n)
			for _, l := range links {
				nw.AddLink(l.A, l.B, float64(l.RateBps), float64(l.PropDelay), 0)
				nw.AddLink(l.B, l.A, float64(l.RateBps), float64(l.PropDelay), 0)
			}
		})
	}
}
