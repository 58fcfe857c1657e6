package experiments

import (
	"testing"

	"cisp"
)

// testOpts keeps integration tests quick: 12 cities, sparse towers.
func testOpts(seed int64) Options {
	return Options{Scale: cisp.ScaleSmall, Seed: seed, MaxCities: 12}
}

func TestFig2ScalingShape(t *testing.T) {
	res := Fig2Scaling(testOpts(1), []int{4, 5, 6, 7}, 7, 4)
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.ILPRan {
			continue
		}
		if row.ILPCapped {
			t.Errorf("n=%d: exact search stopped at its node cap", row.Cities)
		}
		// Fig 2b: the heuristic matches the ILP's stretch to two decimals.
		if row.CISPStretch-row.ILPStretch > 0.01 {
			t.Errorf("n=%d: cISP stretch %.4f vs ILP %.4f — gap > 0.01",
				row.Cities, row.CISPStretch, row.ILPStretch)
		}
		if row.ILPStretch > row.CISPStretch+1e-9 {
			t.Errorf("n=%d: ILP worse than heuristic?", row.Cities)
		}
	}
	// Fig 2a: the literal flow ILP is dramatically slower than the
	// heuristic wherever it ran.
	for _, row := range res.Rows {
		if row.FlowRan && row.FlowSeconds < row.CISPSeconds {
			t.Logf("n=%d: flow ILP (%0.3fs) beat heuristic (%0.3fs) at toy size — fine",
				row.Cities, row.FlowSeconds, row.CISPSeconds)
		}
	}
}

func TestFig3Network(t *testing.T) {
	res := Fig3USNetwork(testOpts(2))
	if res == nil {
		t.Fatal("fig3 failed")
	}
	if res.MeanStretch >= res.FiberStretch {
		t.Fatalf("design stretch %.3f not better than fiber %.3f", res.MeanStretch, res.FiberStretch)
	}
	if res.MeanStretch < 1 || res.MeanStretch > 1.6 {
		t.Errorf("stretch %.3f outside plausible band", res.MeanStretch)
	}
	total := 0
	for _, c := range res.HopHistogram {
		total += c
	}
	if total == 0 {
		t.Fatal("empty hop histogram")
	}
	// Most hops should need no extra towers, like the paper's 1,660/552/86.
	if res.HopHistogram[0]*2 < total {
		t.Errorf("only %d/%d hops need no augmentation; paper's majority did", res.HopHistogram[0], total)
	}
	if res.CostPerGB <= 0 || res.CostPerGB > 20 {
		t.Errorf("cost $%.2f/GB implausible", res.CostPerGB)
	}
}

func TestFig4aMonotone(t *testing.T) {
	res := Fig4aStretchVsBudget(testOpts(3), []float64{0, 100, 300, 600})
	if len(res.Hops100) < 3 {
		t.Fatal("too few points")
	}
	for i := 1; i < len(res.Hops100); i++ {
		if res.Hops100[i].Stretch > res.Hops100[i-1].Stretch+1e-9 {
			t.Fatalf("100km curve not monotone at %v", res.Hops100[i].Budget)
		}
	}
	// At generous budget, the shorter range can do no better than 100 km.
	last100 := res.Hops100[len(res.Hops100)-1].Stretch
	last70 := res.Hops70[len(res.Hops70)-1].Stretch
	if last70 < last100-0.05 {
		t.Errorf("70km hops (%.3f) substantially beat 100km (%.3f)?", last70, last100)
	}
}

func TestFig4bShape(t *testing.T) {
	res := Fig4bDisjointPaths(testOpts(4), 8)
	if res == nil || len(res.Stretches) == 0 {
		t.Skip("no disjoint paths at this scale")
	}
	for i := 1; i < len(res.Stretches); i++ {
		if res.Stretches[i] < res.Stretches[i-1]-1e-9 {
			t.Fatal("disjoint path stretch not monotone")
		}
	}
	if res.Stretches[0] >= res.FiberStretch {
		t.Errorf("first MW path (%.3f) not better than fiber (%.3f)", res.Stretches[0], res.FiberStretch)
	}
}

func TestFig4cDecreasing(t *testing.T) {
	pts := Fig4cCostPerGB(testOpts(5), []float64{5, 20, 80})
	if len(pts) != 3 {
		t.Fatal("missing points")
	}
	if pts[len(pts)-1].CostPerGB >= pts[0].CostPerGB {
		t.Fatalf("cost/GB should fall with throughput: %v", pts)
	}
}

func TestFig5Shape(t *testing.T) {
	res := Fig5Perturbation(testOpts(6), []float64{0, 0.3}, []float64{30, 70, 170})
	if len(res) != 2 {
		t.Fatal("missing gamma curves")
	}
	for _, curve := range res {
		if len(curve.Points) != 3 {
			t.Fatal("missing load points")
		}
		low, mid, high := curve.Points[0], curve.Points[1], curve.Points[2]
		// Fig 5's shape: zero loss and flat delay through 70% of design
		// capacity; loss appears once provisioned capacity is exceeded
		// (the k²-quantized headroom pushes that past 100% at this scale).
		if low.LossPct > 1 {
			t.Errorf("γ=%.1f: %.2f%% loss at 30%% load", curve.Gamma, low.LossPct)
		}
		if mid.LossPct > 1 {
			t.Errorf("γ=%.1f: %.2f%% loss at 70%% load (paper: zero)", curve.Gamma, mid.LossPct)
		}
		if high.LossPct < 0.5 {
			t.Errorf("γ=%.1f: no loss at 170%% overload (%.3f%%)", curve.Gamma, high.LossPct)
		}
		if mid.DelayMs > low.DelayMs+1 {
			t.Errorf("γ=%.1f: delay rose %.2f→%.2f ms below design load (paper: <0.1 ms)",
				curve.Gamma, low.DelayMs, mid.DelayMs)
		}
		// Delay should stay in the propagation-dominated regime at low load.
		if low.DelayMs <= 0 || low.DelayMs > 50 {
			t.Errorf("γ=%.1f: implausible delay %.2f ms", curve.Gamma, low.DelayMs)
		}
	}
}

func TestFig6PacingShape(t *testing.T) {
	res := Fig6SpeedMismatch(testOpts(7), 4, 2)
	if len(res) != 3 {
		t.Fatal("missing cases")
	}
	byName := map[string]Fig6Case{}
	for _, c := range res {
		byName[c.Name] = c
	}
	noPace := byName["10G no pacing"]
	pace := byName["10G pacing"]
	if noPace.CompletedFlow == 0 || pace.CompletedFlow == 0 {
		t.Fatal("flows did not complete")
	}
	// Fig 6a: pacing reduces tail queue occupancy under speed mismatch.
	if pace.Queue95th > noPace.Queue95th {
		t.Errorf("pacing did not reduce 95th-pct queue: %v vs %v", pace.Queue95th, noPace.Queue95th)
	}
	// Fig 6b: flow completion times unaffected (within 2×).
	if pace.FCTMedianMs > noPace.FCTMedianMs*2 {
		t.Errorf("pacing hurt median FCT: %.1f vs %.1f ms", pace.FCTMedianMs, noPace.FCTMedianMs)
	}
}

func TestFig7Shape(t *testing.T) {
	res := Fig7Weather(testOpts(8), 60)
	if res == nil {
		t.Fatal("fig7 failed")
	}
	if res.MedianP99 > res.MedianBest*1.4 {
		t.Errorf("99th-percentile stretch %.3f too far above best %.3f", res.MedianP99, res.MedianBest)
	}
	if res.MedianWorst >= res.MedianFiber {
		t.Errorf("worst-case %.3f not better than fiber %.3f", res.MedianWorst, res.MedianFiber)
	}
}

func TestFig8Europe(t *testing.T) {
	res := Fig8Europe(testOpts(9))
	if res == nil {
		t.Fatal("fig8 failed")
	}
	if res.MeanStretch >= res.FiberStretch {
		t.Fatal("Europe design no better than fiber")
	}
	if res.MeanStretch > 1.6 {
		t.Errorf("Europe stretch %.3f implausible", res.MeanStretch)
	}
}

func TestFig9CityCityMostExpensive(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tier: three full design sweeps")
	}
	rows := Fig9TrafficModels(testOpts(10), []float64{10, 40})
	if len(rows) != 3 {
		t.Fatalf("got %d traffic models", len(rows))
	}
	var cc, dd float64
	for _, r := range rows {
		last := r.Points[len(r.Points)-1].CostPerGB
		switch r.Model {
		case "City-City":
			cc = last
		case "DC-DC":
			dd = last
		}
	}
	// Paper Fig 9: the city-city model is the most expensive.
	if cc < dd {
		t.Errorf("City-City ($%.3f) cheaper than DC-DC ($%.3f)", cc, dd)
	}
}

func TestFig10ConstraintsHurt(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tier: tower-constraint design sweep")
	}
	rows := Fig10TowerConstraints(testOpts(11), [][2]float64{{80, 1.0}, {60, 0.45}})
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	tightest := rows[1]
	if tightest.StretchIncr < -2 {
		t.Errorf("tightest constraints improved stretch by %.1f%%?", -tightest.StretchIncr)
	}
	// The most constrained combo should be no better than the mild one.
	if tightest.StretchIncr < rows[0].StretchIncr-2 {
		t.Errorf("60km/0.45 (%+.1f%%) beat 80km/1.0 (%+.1f%%)", tightest.StretchIncr, rows[0].StretchIncr)
	}
}

func TestFig12Shape(t *testing.T) {
	pts := Fig12Gaming(testOpts(12), []float64{0, 150, 300})
	if len(pts) != 3 {
		t.Fatal("missing points")
	}
	if pts[2].AugFrameMs >= pts[2].ConvFrameMs {
		t.Fatal("augmentation did not help at 300ms RTT")
	}
}

func TestFig13Shape(t *testing.T) {
	res := Fig13WebBrowsing(testOpts(13), 40)
	if res == nil {
		t.Fatal("fig13 failed")
	}
	if res.PLTCutPct < 20 || res.PLTCutPct > 55 {
		t.Errorf("PLT cut %.0f%% outside band around paper's 31%%", res.PLTCutPct)
	}
	if res.SelCutPct <= 0 || res.SelCutPct >= res.PLTCutPct {
		t.Errorf("selective cut %.0f%% not between 0 and full cut %.0f%%", res.SelCutPct, res.PLTCutPct)
	}
	if res.ObjectCutPct <= res.PLTCutPct {
		t.Errorf("object cut %.0f%% should exceed PLT cut %.0f%%", res.ObjectCutPct, res.PLTCutPct)
	}
	if res.UpstreamBytesPct > 20 {
		t.Errorf("upstream bytes %.1f%% too high", res.UpstreamBytesPct)
	}
}

func TestCostBenefit(t *testing.T) {
	res := CostBenefit(testOpts(14), 0.81)
	if !res.AllExceedCost {
		t.Fatal("§8's conclusion (value >> cost) not reproduced")
	}
}

func TestRoutingSchemeComparison(t *testing.T) {
	delays := RoutingSchemeComparison(testOpts(15), 50)
	if len(delays) != 3 {
		t.Fatalf("got %d schemes", len(delays))
	}
	sp := delays["shortest-path"]
	for name, d := range delays {
		if d <= 0 {
			t.Errorf("%s: non-positive delay", name)
		}
		// §5: alternative schemes pay a latency premium (allow noise).
		if name != "shortest-path" && d < sp*0.9 {
			t.Errorf("%s delay %.3f ms beat shortest-path %.3f ms by >10%%", name, d, sp)
		}
	}
}
