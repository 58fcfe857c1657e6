package weather

import (
	"math"
	"testing"

	"cisp/internal/netsim"
)

// fctFixture is a 3-node line: a fast microwave link 0-1 and a fiber
// detour 0-2-1 with generous capacity but higher delay.
func fctFixture() (mw, fiber []netsim.TopoLink, comms []netsim.Commodity) {
	mw = []netsim.TopoLink{{A: 0, B: 1, RateBps: 100e6, PropDelay: 0.002, QueueCap: 100}}
	fiber = []netsim.TopoLink{
		{A: 0, B: 2, RateBps: 1e9, PropDelay: 0.01, QueueCap: 100},
		{A: 2, B: 1, RateBps: 1e9, PropDelay: 0.01, QueueCap: 100},
	}
	comms = []netsim.Commodity{{Flow: 1, Src: 0, Dst: 1, Demand: 50e6}}
	return
}

func TestMeasureFCTCompletesAndDegrades(t *testing.T) {
	mw, fiber, comms := fctFixture()
	schemes := []netsim.Scheme{netsim.ShortestPath}
	cfg := FCTConfig{FlowBytes: 200_000, SimTime: 30}

	clean := MeasureFCT(3, mw, nil, fiber, comms, schemes, cfg)
	if len(clean) != 1 || clean[0].Completed != 1 {
		t.Fatalf("clean run: %+v, want 1 completed flow", clean)
	}

	// Deep fade: the microwave link survives at the QPSK floor (1/6 rate),
	// so the same transfer takes ~6x the serialization time.
	degraded := MeasureFCT(3, mw,
		[]LinkCondition{{CapFrac: CapacityFraction(DefaultFadeMargin, DefaultFadeMargin)}},
		fiber, comms, schemes, cfg)
	if degraded[0].Completed != 1 {
		t.Fatalf("degraded run did not complete: %+v", degraded[0])
	}
	if degraded[0].MeanMs <= clean[0].MeanMs*1.5 {
		t.Fatalf("deep fade FCT %v ms not meaningfully above clear-sky %v ms",
			degraded[0].MeanMs, clean[0].MeanMs)
	}

	// Outage: the flow must reroute over fiber and still complete, slower
	// than microwave in propagation but at full rate.
	failed := MeasureFCT(3, mw,
		[]LinkCondition{{Failed: true}},
		fiber, comms, schemes, cfg)
	if failed[0].Completed != 1 {
		t.Fatalf("outage run did not complete over fiber: %+v", failed[0])
	}
	if failed[0].MeanMs <= clean[0].MeanMs {
		t.Fatalf("fiber-detour FCT %v ms should exceed microwave %v ms",
			failed[0].MeanMs, clean[0].MeanMs)
	}
}

func TestMeasureFCTDeterministic(t *testing.T) {
	mw, fiber, comms := fctFixture()
	schemes := []netsim.Scheme{netsim.ShortestPath, netsim.MinMaxUtilization, netsim.ThroughputOptimal}
	cfg := FCTConfig{FlowBytes: 100_000, SimTime: 30}
	conds := []LinkCondition{{CapFrac: CapacityFraction(12, DefaultFadeMargin)}}
	// Flows in both directions share the links, so completions interleave;
	// node 3 is isolated, so the last commodity is unroutable.
	comms = append(comms,
		netsim.Commodity{Flow: 2, Src: 1, Dst: 0, Demand: 30e6},
		netsim.Commodity{Flow: 3, Src: 0, Dst: 2, Demand: 20e6},
		netsim.Commodity{Flow: 4, Src: 2, Dst: 1, Demand: 80e6},
		netsim.Commodity{Flow: 5, Src: 1, Dst: 2, Demand: 10e6},
		netsim.Commodity{Flow: 6, Src: 0, Dst: 3, Demand: 10e6})
	a := MeasureFCT(4, mw, conds, fiber, comms, schemes, cfg)
	b := MeasureFCT(4, mw, conds, fiber, comms, schemes, cfg)
	if len(a) != len(b) {
		t.Fatalf("result lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scheme %s: run 1 %+v, run 2 %+v", a[i].Scheme, a[i], b[i])
		}
	}
	// Pinned per scheme: counts and p99 exactly, the mean to 1e-9
	// relative (it may be summed in a different flow order).
	want := []FCTResult{
		{Scheme: "shortest-path", MeanMs: 44.582463999999945, P99Ms: 60.48703999999993, Completed: 5, Flows: 6},
		{Scheme: "min-max-utilization", MeanMs: 84.5978239999999, P99Ms: 120.5239999999999, Completed: 5, Flows: 6},
		{Scheme: "throughput-optimal", MeanMs: 84.5978239999999, P99Ms: 120.5239999999999, Completed: 5, Flows: 6},
	}
	for i, w := range want {
		g := a[i]
		if g.Scheme != w.Scheme || g.Completed != w.Completed || g.Flows != w.Flows || g.P99Ms != w.P99Ms ||
			math.Abs(g.MeanMs-w.MeanMs) > 1e-9*math.Abs(w.MeanMs) {
			t.Errorf("scheme %d: got %+v, want %+v", i, g, w)
		}
	}
}
