package experiments

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"cisp"
	"cisp/internal/netsim"
	"cisp/internal/traffic"
)

// teTestOpt keeps the TE experiment tests fast: a 10-city designed
// backbone is enough to exercise design → provision → TE → both engines.
func teTestOpt() Options {
	return Options{Scale: cisp.ScaleSmall, Seed: 1, MaxCities: 10}
}

// TestDesignedTETopologyParallelFiber: conduits parallel to built
// microwave links must survive as midpoint-node detours, and the combined
// link list must be a simple graph (netsim and te both require it).
func TestDesignedTETopologyParallelFiber(t *testing.T) {
	tt, err := DesignedTETopology(teTestOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(tt.Mw) == 0 || len(tt.Fiber) == 0 {
		t.Fatalf("degenerate topology: %d mw, %d fiber links", len(tt.Mw), len(tt.Fiber))
	}
	if tt.Nodes <= len(tt.Sites) {
		t.Fatalf("no fiber midpoints: nodes = %d, sites = %d (expected parallel conduits)", tt.Nodes, len(tt.Sites))
	}
	seen := map[[2]int]bool{}
	for _, l := range tt.Links() {
		key := [2]int{l.A, l.B}
		if seen[key] {
			t.Fatalf("duplicate link %v", key)
		}
		seen[key] = true
		if l.A < 0 || l.A >= tt.Nodes || l.B < 0 || l.B >= tt.Nodes {
			t.Fatalf("link %v outside node range [0,%d)", key, tt.Nodes)
		}
	}
	// Every midpoint must be exactly a degree-2 transit node.
	deg := make([]int, tt.Nodes)
	for _, l := range tt.Links() {
		deg[l.A]++
		deg[l.B]++
	}
	for v := len(tt.Sites); v < tt.Nodes; v++ {
		if deg[v] != 2 {
			t.Fatalf("midpoint %d has degree %d, want 2", v, deg[v])
		}
	}
}

// TestDemandCommoditiesStableIDs: commodity flow IDs must not depend on
// the flow total, so one TE solution serves both the clamped packet replay
// and the full fluid replay.
func TestDemandCommoditiesStableIDs(t *testing.T) {
	m := traffic.New(5)
	m.Set(0, 1, 5)
	m.Set(0, 2, 3)
	m.Set(1, 3, 2)
	m.Set(2, 4, 0.1)
	big := DemandCommodities(m, 1000, teFlowBytes, teStartSpread)
	small := DemandCommodities(m, 10, teFlowBytes, teStartSpread)
	byFlow := map[int][2]int{}
	for _, c := range big {
		byFlow[c.Flow] = [2]int{c.Src, c.Dst}
	}
	for _, c := range small {
		if got, ok := byFlow[c.Flow]; !ok || got != [2]int{c.Src, c.Dst} {
			t.Fatalf("flow %d maps to %v in the small replay but %v in the big one", c.Flow, [2]int{c.Src, c.Dst}, got)
		}
	}
	// Demands reflect the actual offered load.
	for _, c := range big {
		want := float64(c.Count) * float64(teFlowBytes) * 8 / teStartSpread
		if float64(c.Demand) != want {
			t.Fatalf("flow %d demand %v, want %v", c.Flow, c.Demand, want)
		}
		if c.FlowBytes != teFlowBytes {
			t.Fatalf("flow %d payload %d, want %d", c.Flow, c.FlowBytes, teFlowBytes)
		}
	}
	total := 0
	for _, c := range big {
		total += c.Count
	}
	if total != 1000 {
		t.Fatalf("big replay apportioned %d flows, want 1000", total)
	}

	// Pinned: the designed mix at the packet clamp and at a fluid scale.
	tt, err := DesignedTETopology(teTestOpt())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		flows int
		want  uint64
	}{{1500, 0x377f55e50bde0acc}, {20_000, 0x4f5beafff8338ea1}} {
		comms := DemandCommodities(tt.DesignTM, tc.flows, teFlowBytes, teStartSpread)
		if got := commoditiesHash(comms); got != tc.want {
			t.Errorf("%d flows: %d commodities, hash %#x; want %#x", tc.flows, len(comms), got, tc.want)
		}
	}
}

// commoditiesHash folds every commodity's flow ID, endpoints, count and
// demand bits, in list order, into one FNV-64a sum.
func commoditiesHash(comms []netsim.Commodity) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, c := range comms {
		put(uint64(c.Flow))
		put(uint64(c.Src))
		put(uint64(c.Dst))
		put(uint64(c.Count))
		put(math.Float64bits(float64(c.Demand)))
	}
	return h.Sum64()
}

// TestFigTEAcceptance is the PR's headline criterion: on a seeded hotspot
// over a designed backbone, TE splits achieve strictly lower measured MLU
// than shortest-path routing and no worse p99 FCT — in both engine modes.
// The rain workload must show the same MLU ordering.
func TestFigTEAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tier: TE comparison across schemes and engines")
	}
	// 6000 flows push the hotspot links past the TE utilization hinge; at
	// lighter loads TE deliberately collapses onto shortest paths (that
	// behavior is pinned by te.TestSolvePrefersShortPathWhenUncongested).
	res := FigTE(teTestOpt(), 6000)
	if res == nil {
		t.Fatal("FigTE returned nil")
	}
	for _, mode := range []string{"packet", "fluid"} {
		sp := res.Row("hotspot", "shortest-path", mode)
		te := res.Row("hotspot", teSchemeName, mode)
		if sp == nil || te == nil {
			t.Fatalf("%s: missing hotspot rows", mode)
		}
		if te.MLU >= sp.MLU {
			t.Errorf("%s hotspot: TE MLU %.4f not strictly below shortest-path %.4f", mode, te.MLU, sp.MLU)
		}
		if te.P99FCTMs > sp.P99FCTMs {
			t.Errorf("%s hotspot: TE p99 FCT %.1fms worse than shortest-path %.1fms", mode, te.P99FCTMs, sp.P99FCTMs)
		}
		if te.Completed != te.Flows {
			t.Errorf("%s hotspot: TE completed %d/%d flows", mode, te.Completed, te.Flows)
		}
		if te.PredMLU <= 0 {
			t.Errorf("%s hotspot: no predicted MLU exported", mode)
		}

		spRain := res.Row("rain", "shortest-path", mode)
		teRain := res.Row("rain", teSchemeName, mode)
		if spRain == nil || teRain == nil {
			t.Fatalf("%s: missing rain rows", mode)
		}
		if teRain.MLU >= spRain.MLU {
			t.Errorf("%s rain: TE MLU %.4f not below shortest-path %.4f", mode, teRain.MLU, spRain.MLU)
		}
	}
}
