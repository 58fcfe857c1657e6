package workload

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"cisp/internal/cities"
	"cisp/internal/geo"
	"cisp/internal/netsim"
	"cisp/internal/parallel"
	"cisp/internal/units"
)

// testBackbone is the shared small substrate: four population centers and
// one data center, a microwave backbone with route diversity, and a fiber
// graph over the same sites at ~1.5× the propagation delay (the paper's
// fiber stretch). Capacities are modest so replays run congested — the
// regime where the packet engine's TCP tracks the fluid engine's max-min
// shares.
func testBackbone() *Backbone {
	sites := []cities.City{
		{Name: "A", Loc: geo.Point{Lat: 40, Lon: -75}, Population: 8_000_000},
		{Name: "B", Loc: geo.Point{Lat: 41, Lon: -85}, Population: 4_000_000},
		{Name: "C", Loc: geo.Point{Lat: 39, Lon: -95}, Population: 2_000_000},
		{Name: "D", Loc: geo.Point{Lat: 40, Lon: -105}, Population: 1_000_000},
		{Name: "DC", Loc: geo.Point{Lat: 38, Lon: -90}, Population: 0},
	}
	mwPairs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 4}, {2, 4}}
	mw := links(30e6, 1.0, mwPairs, sites)
	// Fiber conduits parallel the microwave links through midpoint transit
	// nodes — netsim paths are node sequences, so parallel capacity needs
	// distinct nodes, the same shape DesignedTETopology produces — plus
	// one conduit (1-3) with no microwave twin.
	nodes := len(sites)
	var fiber []netsim.TopoLink
	for _, p := range mwPairs {
		d := float64(sites[p[0]].Loc.DistanceTo(sites[p[1]].Loc)) * 1.5 / geo.C
		mid := nodes
		nodes++
		fiber = append(fiber,
			netsim.TopoLink{A: p[0], B: mid, RateBps: units.Mbps(60), PropDelay: units.Seconds(d / 2)},
			netsim.TopoLink{A: mid, B: p[1], RateBps: units.Mbps(60), PropDelay: units.Seconds(d / 2)})
	}
	fiber = append(fiber, links(units.Mbps(60), 1.5, [][2]int{{1, 3}}, sites)...)
	return &Backbone{Sites: sites, Nodes: nodes, Mw: mw, Fiber: fiber}
}

// links builds duplex links between the site pairs at the given rate,
// with propagation delay = geodesic distance × stretch / c.
func links(rateBps units.BitsPerSecond, stretch float64, pairs [][2]int, sites []cities.City) []netsim.TopoLink {
	var out []netsim.TopoLink
	for _, p := range pairs {
		d := float64(sites[p[0]].Loc.DistanceTo(sites[p[1]].Loc))
		out = append(out, netsim.TopoLink{A: p[0], B: p[1], RateBps: rateBps, PropDelay: units.Seconds(d * stretch / geo.C)})
	}
	return out
}

// goldenMix is the cross-engine test mix: equal shares and rates with
// multi-megabyte payloads in every class, so flows spend their lives in
// TCP steady state (the same reason the netsim agreement scenario uses
// 4 MB payloads) and per-class mean rates are comparable across engines.
func goldenMix() AppMix {
	var m AppMix
	m[Gaming] = AppProfile{Share: 0.34, RateBps: 1e6, FlowBytes: 4 << 20}
	m[Media] = AppProfile{Share: 0.33, RateBps: 1e6, FlowBytes: 8 << 20}
	m[Web] = AppProfile{Share: 0.33, RateBps: 1e6, FlowBytes: 4 << 20}
	return m
}

// TestPipelineGoldenCrossEngine is the golden end-to-end check: the same
// compiled workload replayed at identical flow counts must produce the
// identical flow population in both engines (byte-identical assignment)
// and per-application mean rates within the tested 10% tolerance.
func TestPipelineGoldenCrossEngine(t *testing.T) {
	b := testBackbone()
	c, err := Compile(Spec{Kind: Diurnal, Mix: goldenMix()}, b)
	if err != nil {
		t.Fatal(err)
	}
	p := Pipeline{Backbone: b, TotalFlows: 60, PacketFlows: 60, Window: 5, Horizon: 600}
	rep, err := p.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 4 {
		t.Fatalf("%d runs, want 4", len(rep.Runs))
	}
	for _, sub := range []string{SubstrateCISP, SubstrateFiber} {
		pkt, fl := rep.Run(sub, "packet"), rep.Run(sub, "fluid")
		if pkt == nil || fl == nil {
			t.Fatalf("%s: missing runs", sub)
		}
		if pkt.Flows != fl.Flows || pkt.Flows != 60 {
			t.Fatalf("%s: flow populations differ: packet %d, fluid %d", sub, pkt.Flows, fl.Flows)
		}
		if pkt.Completed != pkt.Flows || fl.Completed != fl.Flows {
			t.Fatalf("%s: incomplete replay: packet %d/%d, fluid %d/%d",
				sub, pkt.Completed, pkt.Flows, fl.Completed, fl.Flows)
		}
		for a := App(0); a < NumApps; a++ {
			pa, fa := pkt.Apps[a], fl.Apps[a]
			if pa.Flows != fa.Flows {
				t.Fatalf("%s/%s: per-app flow assignment differs: %d vs %d", sub, a, pa.Flows, fa.Flows)
			}
			if pa.Flows == 0 {
				continue
			}
			if fa.MeanRateKbps <= 0 || fa.GoodputKbps <= 0 {
				t.Fatalf("%s/%s: fluid rates not positive: %+v", sub, a, fa)
			}
			if d := math.Abs(pa.GoodputKbps-fa.GoodputKbps) / fa.GoodputKbps; d > 0.10 {
				t.Errorf("%s/%s: packet goodput %.0f vs fluid %.0f kbps — %.0f%% apart (tolerance 10%%)",
					sub, a, pa.GoodputKbps, fa.GoodputKbps, d*100)
			}
		}
	}
	// The hybrid's latency advantage must show up as lower per-app RTT.
	for a := App(0); a < NumApps; a++ {
		h := rep.Run(SubstrateCISP, "fluid").Apps[a].RTTMs
		f := rep.Run(SubstrateFiber, "fluid").Apps[a].RTTMs
		if h <= 0 || f <= 0 || h >= f {
			t.Fatalf("%s: hybrid RTT %.2f ms not below fiber %.2f ms", a, h, f)
		}
	}
	// QoE translations follow the RTT gap.
	if rep.QoE.GamingFrameMsCISP >= rep.QoE.GamingFrameMsFiber {
		t.Fatal("gaming frame time did not improve on the hybrid")
	}
	if rep.QoE.WebPLTMsCISP >= rep.QoE.WebPLTMsFiber {
		t.Fatal("page-load time did not improve on the hybrid")
	}
}

// TestPipelineDeterministicAcrossWorkers pins the bit-identical contract:
// the full scenario report — every FCT percentile, rate, MLU, and nine —
// is identical at one worker and at eight.
func TestPipelineDeterministicAcrossWorkers(t *testing.T) {
	b := testBackbone()
	c, err := Compile(Spec{Kind: Disaster, Mix: goldenMix(), Seed: 7}, b)
	if err != nil {
		t.Fatal(err)
	}
	p := Pipeline{Backbone: b, TotalFlows: 40, PacketFlows: 40, Window: 5, Horizon: 120, Seed: 7}

	prev := parallel.SetWorkers(1)
	seq, err := p.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetWorkers(8)
	par, err := p.Run(c)
	parallel.SetWorkers(prev)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("report differs across worker counts:\n1 worker: %+v\n8 workers: %+v", seq, par)
	}
}

func TestPipelineDisasterResilience(t *testing.T) {
	b := testBackbone()
	c, err := Compile(Spec{Kind: Disaster, Mix: goldenMix()}, b)
	if err != nil {
		t.Fatal(err)
	}
	p := Pipeline{Backbone: b, TotalFlows: 40, PacketFlows: 40, Window: 5, Horizon: 120}
	rep, err := p.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasFailures {
		t.Fatal("disaster report has no failure section")
	}
	for _, st := range []struct {
		name string
		av   float64
	}{{"cisp", rep.AvailCISP.Availability}, {"fiber", rep.AvailFiber.Availability}} {
		if st.av <= 0 || st.av > 1 {
			t.Fatalf("%s availability %v outside (0, 1]", st.name, st.av)
		}
	}
	if rep.ReroutesCISP == 0 {
		t.Fatal("hybrid fast-reroute plan issued no reroutes under storm + cut")
	}
	// The storm takes out the microwave layer around the epicenter for
	// half the drill; with plain FRR a commodity whose primary and backup
	// are both microwave stays dark (measured ≈ 0.95 here). The warm-
	// reoptimizing control loop rescues those fractions onto fiber, so
	// only detection and reopt windows are lost.
	if rep.AvailCISP.Availability < 0.999 {
		t.Fatalf("hybrid availability %v under reopt — storm fractions not rescued",
			rep.AvailCISP.Availability)
	}
	if rep.AvailCISP.Mode.String() != "reopt" || rep.AvailFiber.Mode.String() != "reopt" {
		t.Fatalf("availability walked under %v/%v, want reopt", rep.AvailCISP.Mode, rep.AvailFiber.Mode)
	}
}

// TestPipelineRejectsNonFiniteDurations: a NaN or infinite Window or
// Horizon is refused up front, naming the field. Past the defaults a NaN
// window reached TE as a NaN demand, an infinite one panicked in a replay
// leg, and a NaN or infinite horizon compressed the failure schedule into
// times fast reroute could not order.
func TestPipelineRejectsNonFiniteDurations(t *testing.T) {
	b := testBackbone()
	c, err := Compile(Spec{Kind: Disaster, Mix: goldenMix()}, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, tc := range []struct {
			field string
			p     Pipeline
		}{
			{"Window", Pipeline{Backbone: b, TotalFlows: 40, Window: v, Horizon: 120}},
			{"Horizon", Pipeline{Backbone: b, TotalFlows: 40, Window: 5, Horizon: v}},
		} {
			want := fmt.Sprintf("workload: pipeline %s %v s", tc.field, v)
			if rep, err := tc.p.Run(c); err == nil || err.Error() != want {
				t.Errorf("%s %v: report %v, error %v; want %q", tc.field, v, rep != nil, err, want)
			}
		}
	}
}

func TestPipelineCDNPlacement(t *testing.T) {
	b := testBackbone()
	c, err := Compile(Spec{Kind: CDNPlacement, Mix: goldenMix(), SinkCount: 2}, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Sinks) != 2 {
		t.Fatalf("placed %d sinks, want 2", len(c.Sinks))
	}
	p := Pipeline{Backbone: b, TotalFlows: 40, PacketFlows: 40, Window: 5, Horizon: 120}
	rep, err := p.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SinkBills) == 0 || rep.SinkCapex <= 0 {
		t.Fatalf("no replica bill: %+v", rep.SinkBills)
	}
	for _, sb := range rep.SinkBills {
		if sb.Medium == "" || sb.Capex <= 0 || sb.EgressGbps <= 0 {
			t.Fatalf("degenerate sink bill %+v", sb)
		}
	}
}
