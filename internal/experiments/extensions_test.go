package experiments

import (
	"math"
	"testing"

	"cisp/internal/netsim"
)

func TestExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tier: every extension study end to end")
	}
	res := Extensions(testOpts(30))
	if res.MMWCrossoverGbps <= 1 {
		t.Errorf("MMW crossover at %.1f Gbps — microwave should win the low-bandwidth regime", res.MMWCrossoverGbps)
	}
	if res.AcqFeasibleRate > 0 && res.AcqAfterConfirm < res.AcqFeasibleRate-0.1 {
		t.Errorf("confirming priority towers reduced buildability: %.2f -> %.2f",
			res.AcqFeasibleRate, res.AcqAfterConfirm)
	}
}

func TestFig6ScaleBothModes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tier: designed-backbone replay in both engines")
	}
	// The same small scenario on both engines: the fluid replay must carry
	// far more flows than the packet clamp allows, and both must complete
	// a healthy share of what they offer.
	fl := Fig6Scale(testOpts(21), netsim.FluidMode, 30_000)
	if fl == nil {
		t.Fatal("fluid run failed")
	}
	if fl.Flows != 30_000 {
		t.Fatalf("fluid offered %d flows, want 30000", fl.Flows)
	}
	if fl.Completed == 0 {
		t.Fatal("fluid mode completed nothing")
	}
	pk := Fig6Scale(testOpts(21), netsim.PacketMode, 30_000)
	if pk == nil {
		t.Fatal("packet run failed")
	}
	if pk.Flows > 1500 {
		t.Fatalf("packet mode ran %d flows; clamp missing", pk.Flows)
	}
	if pk.Completed == 0 {
		t.Fatal("packet mode completed nothing")
	}

	// Pinned: every seed-deterministic column of both rows, floats bit
	// for bit. Shortest-path routing never takes a midpoint detour, so
	// these are also the figures of the backbone without them.
	for _, tc := range []struct {
		got  *Fig6ScaleResult
		want fig6Pin
	}{
		{fl, fig6Pin{30000, 30000, 0x40dd111111111111, 0x40edbccccccccccd, 0x40edbccccccccccd, 0x4083c220a736d44c, 30093}},
		{pk, fig6Pin{1500, 1500, 0x4092aef51998bdac, 0x40aa5dbe2cc1acd7, 0x40b95a55ad0d73aa, 0x40a683dd1e169305, 1981244}},
	} {
		g := tc.got
		got := fig6Pin{g.Flows, g.Completed,
			math.Float64bits(g.FCTMedianMs), math.Float64bits(g.FCT95Ms), math.Float64bits(g.FCT99Ms),
			math.Float64bits(g.MeanRateKbps), g.Events}
		if got != tc.want {
			t.Errorf("%s row %#v, want %#v", g.Mode, got, tc.want)
		}
	}
	// The replay's topology keeps parallel conduits through midpoints.
	tt, err := DesignedTETopology(testOpts(21))
	if err != nil {
		t.Fatal(err)
	}
	if tt.Nodes <= len(tt.Sites) {
		t.Fatalf("12-city backbone has no fiber midpoints: %d nodes, %d sites", tt.Nodes, len(tt.Sites))
	}
}

// fig6Pin is a Fig6ScaleResult's seed-deterministic columns: flows,
// completions, the bits of each FCT percentile and of the mean rate, and
// events.
type fig6Pin struct {
	flows, completed        int
	med, p95, p99, rateKbps uint64
	events                  int64
}
