package netsim

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// failureDiamond is the failure-study fixture: the split diamond with the
// commodity riding only the upper path 0-1-3, so killing link 0-1 (index 0)
// strands every flow unless an update moves them to 0-2-3.
func failureDiamond(count int) *Scenario {
	sc := diamondSplitScenario(1, count)
	sc.Splits[1] = []SplitPath{{Path: []int{0, 1, 3}, Frac: 1}}
	return sc
}

// TestLinkSetDownDropsTraffic: a downed packet-mode link drops queued,
// in-flight and newly arriving packets, and restoring it resumes delivery.
func TestLinkSetDownDropsTraffic(t *testing.T) {
	var sim Simulator
	nw := NewNetwork(&sim, 2)
	l := nw.AddLink(0, 1, 1e6, 0.01, 0)
	nw.SetFlowPath(7, []int{0, 1})
	delivered := 0
	nw.OnDeliver(7, func(*Packet) { delivered++ })
	send := func() {
		p := nw.newPacket()
		p.Flow, p.Seq, p.Kind, p.Size = 7, 1, Data, 1000
		p.Src, p.Dst = 0, 1
		nw.Inject(p)
	}
	// Queue a burst, then kill the link before the first transmission (8 ms)
	// finishes: everything must be lost.
	sim.Schedule(0, func() {
		for i := 0; i < 5; i++ {
			send()
		}
	})
	sim.Schedule(0.004, func() { l.SetDown(true) })
	sim.Run(1)
	if delivered != 0 {
		t.Fatalf("delivered %d packets across a downed link", delivered)
	}
	if l.Drops != 5 {
		t.Errorf("Drops = %d, want 5 (4 queued + 1 in flight)", l.Drops)
	}
	// While down, new arrivals are dropped immediately.
	send()
	sim.Run(2)
	if delivered != 0 || l.Drops != 6 {
		t.Fatalf("down link: delivered=%d drops=%d, want 0/6", delivered, l.Drops)
	}
	// Restore: traffic flows again.
	l.SetDown(false)
	send()
	sim.Run(3)
	if delivered != 1 {
		t.Fatalf("restored link delivered %d packets, want 1", delivered)
	}
}

// TestScenarioFailureStrandsFlows: with no protection, killing the only
// path mid-run strands incomplete flows in both engine modes, and
// restoring the link late lets stragglers finish.
func TestScenarioFailureStrandsFlows(t *testing.T) {
	for _, mode := range []Mode{PacketMode, FluidMode} {
		sc := failureDiamond(20)
		sc.StartSpread = 20
		// One second of horizon past the restore: the ~1.5 s of total uptime
		// cannot serve all twenty 1 MiB flows over a 40 Mbps path.
		sc.Horizon = 26
		sc.Failures = []FailureEvent{
			{Time: 0.5, Link: 0, Up: false},
			{Time: 25, Link: 0, Up: true},
		}
		res := sc.Run(mode)
		if res.Completed == len(res.Flows) {
			t.Fatalf("%s: all %d flows completed despite a 24.5 s outage", mode, res.Completed)
		}
		// The restore must let the stranded flows finish given enough time.
		sc2 := failureDiamond(20)
		sc2.StartSpread = 20
		sc2.Horizon = 120
		sc2.Failures = []FailureEvent{
			{Time: 0.5, Link: 0, Up: false},
			{Time: 25, Link: 0, Up: true},
		}
		res2 := sc2.Run(mode)
		if res2.Completed != len(res2.Flows) {
			t.Errorf("%s: only %d/%d flows completed after the link was restored",
				mode, res2.Completed, len(res2.Flows))
		}
	}
}

// TestScenarioUpdateReroutesFlows: a fast-reroute style update right after
// the failure moves the commodity onto the surviving path; every flow
// completes in both modes and the backup path carries the traffic.
func TestScenarioUpdateReroutesFlows(t *testing.T) {
	for _, mode := range []Mode{PacketMode, FluidMode} {
		sc := failureDiamond(20)
		sc.StartSpread = 20
		sc.Horizon = 60
		sc.Failures = []FailureEvent{{Time: 5, Link: 0, Up: false}}
		sc.Updates = []PathUpdate{
			{Time: 5.05, Flow: 1, Paths: []SplitPath{{Path: []int{0, 2, 3}, Frac: 1}}},
		}
		res := sc.Run(mode)
		if res.Completed != len(res.Flows) {
			t.Fatalf("%s: %d/%d flows completed with FRR update installed",
				mode, res.Completed, len(res.Flows))
		}
		var backup float64
		for _, l := range res.LinkLoads {
			if l.From == 0 && l.To == 2 {
				backup = float64(l.Utilization)
			}
		}
		if backup <= 0 {
			t.Errorf("%s: backup path 0-2 carried no traffic after the update", mode)
		}
	}
}

// TestPacketFluidAgreementUnderFRR is the cross-engine bound under failure:
// with a mid-run outage bridged by a fast-reroute update, packet and fluid
// per-commodity mean rates must agree within the established tolerance.
func TestPacketFluidAgreementUnderFRR(t *testing.T) {
	build := func() *Scenario {
		sc := failureDiamond(8)
		sc.StartSpread = 0
		sc.Horizon = 120
		sc.Failures = []FailureEvent{
			{Time: 0.8, Link: 0, Up: false},
			{Time: 30, Link: 0, Up: true},
		}
		sc.Updates = []PathUpdate{
			{Time: 0.85, Flow: 1, Paths: []SplitPath{{Path: []int{0, 2, 3}, Frac: 1}}},
		}
		return sc
	}
	pkt := build().Run(PacketMode)
	fl := build().Run(FluidMode)
	if pkt.Completed != len(pkt.Flows) || fl.Completed != len(fl.Flows) {
		t.Fatalf("incomplete runs: packet %d/%d fluid %d/%d",
			pkt.Completed, len(pkt.Flows), fl.Completed, len(fl.Flows))
	}
	p, f := pkt.MeanRateByCommodity()[1], fl.MeanRateByCommodity()[1]
	if p <= 0 || f <= 0 {
		t.Fatalf("non-positive rates packet=%v fluid=%v", p, f)
	}
	if d := math.Abs(p-f) / f; d > packetFluidAgreementTol {
		t.Errorf("FRR: packet %.0f bps vs fluid %.0f bps — %.0f%% apart (tolerance %.0f%%)",
			p, f, d*100, packetFluidAgreementTol*100)
	}
}

// TestFluidRerouteCarriesRemainingBytes: a mid-run Reroute must preserve
// transfer progress — the flow departs when the new route has served only
// the remaining payload, and ServedBytes stays monotone across the move.
func TestFluidRerouteCarriesRemainingBytes(t *testing.T) {
	links := []TopoLink{
		{A: 0, B: 1, RateBps: 8e6, PropDelay: 0.001},
		{A: 0, B: 2, RateBps: 8e6, PropDelay: 0.001},
		{A: 1, B: 3, RateBps: 8e6, PropDelay: 0.001},
		{A: 2, B: 3, RateBps: 8e6, PropDelay: 0.001},
	}
	f := NewFluid(4, links)
	up := f.AddRoute([]int{0, 1, 3})
	down := f.AddRoute([]int{0, 2, 3})
	// 4 MiB at 8 Mbps: ~4.19 s of total service time.
	id := f.Start(up, 4<<20)
	f.Run(1) // 1 MB served
	served := f.ServedBytes(id)
	const mb = float64(1 << 20)
	if served <= 0.9*mb || served >= 1.1*mb {
		t.Fatalf("served %.0f bytes after 1 s, want ~1 MB", served)
	}
	f.Reroute(id, down)
	f.Recompute()
	if got := f.ServedBytes(id); math.Abs(got-served) > 1 {
		t.Fatalf("ServedBytes jumped across Reroute: %.0f -> %.0f", served, got)
	}
	f.Run(10)
	fct, done := f.FCT(id)
	if !done {
		t.Fatal("flow never completed after reroute")
	}
	// 4 MiB at 8 Mbps is 4.19 s of service regardless of the move.
	want := 4 * mb * 8 / 8e6
	if math.Abs(fct-want) > 0.05 {
		t.Errorf("FCT = %.3f s, want ~%.3f s (progress lost or double-counted)", fct, want)
	}
	// Utilization attribution: the ~1 MB served before the move belongs to
	// the 0-1-3 links, the remaining ~3.2 MB to 0-2-3.
	util := map[[2]int]float64{}
	for _, l := range f.LinkUtilizations() {
		util[[2]int{l.From, l.To}] = float64(l.Utilization)
	}
	oldWant := served * 8 / (8e6 * f.Now())
	newWant := (4*mb - served) * 8 / (8e6 * f.Now())
	for _, hop := range [][2]int{{0, 1}, {1, 3}} {
		if got := util[hop]; math.Abs(got-oldWant) > 0.01 {
			t.Errorf("link %v utilization %.4f, want %.4f (pre-move bytes lost)", hop, got, oldWant)
		}
	}
	for _, hop := range [][2]int{{0, 2}, {2, 3}} {
		if got := util[hop]; math.Abs(got-newWant) > 0.01 {
			t.Errorf("link %v utilization %.4f, want %.4f (post-move bytes misattributed)", hop, got, newWant)
		}
	}
}

// TestFluidRerouteOfPendingAndCompletedFlows: rerouting a flow that has not
// yet arrived moves its admission; rerouting a completed flow is a no-op.
func TestFluidRerouteOfPendingAndCompletedFlows(t *testing.T) {
	links := []TopoLink{
		{A: 0, B: 1, RateBps: 8e6, PropDelay: 0.001},
		{A: 0, B: 2, RateBps: 8e6, PropDelay: 0.001},
	}
	f := NewFluid(3, links)
	r1 := f.AddRoute([]int{0, 1})
	r2 := f.AddRoute([]int{0, 2})
	early := f.Start(r1, 1<<20)
	late := f.StartAt(r1, 1<<20, 5)
	f.Run(2) // early done (~1 s), late still pending
	if _, done := f.FCT(early); !done {
		t.Fatal("early flow incomplete after 2 s")
	}
	f.Reroute(early, r2) // completed: no-op
	f.Reroute(late, r2)  // pending: admission moves to r2
	f.Recompute()
	f.Run(20)
	if _, done := f.FCT(late); !done {
		t.Fatal("late flow incomplete")
	}
	if f.RouteRate(r1) != 0 {
		t.Errorf("route r1 still has rate %v after its only pending flow moved", f.RouteRate(r1))
	}
	loads := f.LinkUtilizations()
	if loads[2].Utilization <= 0 { // 0->2 is the third directed link
		t.Errorf("rerouted pending flow left link 0->2 idle: %+v", loads)
	}
}

// TestScenarioFailureDeterminism: failure + update schedules preserve the
// engines' bit-identical determinism in the Seed.
func TestScenarioFailureDeterminism(t *testing.T) {
	build := func() *Scenario {
		sc := failureDiamond(30)
		sc.StartSpread = 10
		sc.Horizon = 60
		sc.Failures = []FailureEvent{
			{Time: 2, Link: 0, Up: false},
			{Time: 20, Link: 0, Up: true},
		}
		sc.Updates = []PathUpdate{
			{Time: 2.05, Flow: 1, Paths: []SplitPath{
				{Path: []int{0, 2, 3}, Frac: 0.8},
				{Path: []int{0, 1, 3}, Frac: 0.2},
			}},
		}
		return sc
	}
	for _, mode := range []Mode{PacketMode, FluidMode} {
		a, b := build().Run(mode), build().Run(mode)
		if len(a.Flows) != len(b.Flows) {
			t.Fatalf("%s: flow counts differ", mode)
		}
		for i := range a.Flows {
			if a.Flows[i] != b.Flows[i] {
				t.Fatalf("%s: flow %d differs: %+v vs %+v", mode, i, a.Flows[i], b.Flows[i])
			}
		}
		for i := range a.LinkLoads {
			if a.LinkLoads[i] != b.LinkLoads[i] {
				t.Fatalf("%s: link load %d differs", mode, i)
			}
		}
	}
}

// TestMalformedActionsRejectedAtSetup: both engines reject the same
// malformed timed actions and numbers before the run starts, naming the
// value, wherever an action falls in time. The first two updates sit past
// the horizon, where no engine would ever apply them. An infinite start
// spread left every flow unstarted with no error, a NaN or negative one
// read as 0, a negative flow size failed differently in each engine, an
// infinite split fraction failed with a bare index error inside the run
// and a NaN one moved every flow onto the other path.
func TestMalformedActionsRejectedAtSetup(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	split := func(frac float64) []SplitPath {
		return []SplitPath{{Path: []int{0, 1, 2}, Frac: frac}, {Path: []int{0, 1, 2}, Frac: 0.5}}
	}
	cases := []struct {
		name string
		edit func(sc *Scenario)
		want string
	}{
		{"update path misses the destination", func(sc *Scenario) {
			sc.Updates = []PathUpdate{{Time: sc.Horizon + 10, Flow: 1,
				Paths: []SplitPath{{Path: []int{0, 1}, Frac: 1}}}}
		}, "does not connect"},
		{"update with no positive fraction", func(sc *Scenario) {
			sc.Updates = []PathUpdate{{Time: sc.Horizon + 10, Flow: 1,
				Paths: []SplitPath{{Path: []int{0, 1, 2}, Frac: 0}}}}
		}, "no usable path"},
		{"failure on a link outside Links", func(sc *Scenario) {
			sc.Failures = []FailureEvent{{Time: 1, Link: len(sc.Links)}}
		}, "outside"},
		{"infinite start spread", func(sc *Scenario) { sc.StartSpread = inf }, "start spread +Inf s"},
		{"NaN start spread", func(sc *Scenario) { sc.StartSpread = nan }, "start spread NaN s"},
		{"negative start spread", func(sc *Scenario) { sc.StartSpread = -2 }, "start spread -2 s"},
		{"negative flow size", func(sc *Scenario) { sc.FlowBytes = -5000 }, "flow size -5000 bytes"},
		{"infinite split fraction", func(sc *Scenario) {
			sc.Splits = map[int][]SplitPath{1: split(inf)}
		}, "commodity 1 has fraction +Inf"},
		{"NaN split fraction", func(sc *Scenario) {
			sc.Splits = map[int][]SplitPath{1: split(nan)}
		}, "commodity 1 has fraction NaN"},
		{"NaN update fraction", func(sc *Scenario) {
			sc.Updates = []PathUpdate{{Time: 1, Flow: 1, Paths: split(nan)}}
		}, "commodity 1 has fraction NaN"},
		{"-Inf update fraction", func(sc *Scenario) {
			sc.Updates = []PathUpdate{{Time: 1, Flow: 1, Paths: split(-inf)}}
		}, "commodity 1 has fraction -Inf"},
	}
	for _, tc := range cases {
		for _, mode := range []Mode{PacketMode, FluidMode} {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Errorf("%s, %s: no panic", tc.name, mode)
					} else if msg := fmt.Sprint(r); !strings.Contains(msg, tc.want) {
						t.Errorf("%s, %s: panic %q does not mention %q", tc.name, mode, msg, tc.want)
					}
				}()
				sc := agreementScenario()
				tc.edit(sc)
				sc.Run(mode)
			}()
		}
	}
}

// TestNonFiniteTimesRejectedAtSetup: with a NaN horizon both engines run
// past any horizon, and a failure at a NaN time never comes due, so the
// fluid engine's batch loop never advances past it. expand, which both
// engines run first, refuses a NaN, infinite or negative horizon and a
// failure or update at a NaN or infinite time, naming the value.
func TestNonFiniteTimesRejectedAtSetup(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	path := []SplitPath{{Path: []int{0, 1, 2}, Frac: 1}}
	cases := []struct {
		name string
		edit func(sc *Scenario)
		want string
	}{
		{"NaN horizon", func(sc *Scenario) { sc.Horizon = nan }, "horizon NaN s"},
		{"infinite horizon", func(sc *Scenario) { sc.Horizon = inf }, "horizon +Inf s"},
		{"negative horizon", func(sc *Scenario) { sc.Horizon = -1 }, "horizon -1 s"},
		{"failure at NaN", func(sc *Scenario) {
			sc.Failures = []FailureEvent{{Time: nan, Link: 1}}
		}, "failure event on link 1 at NaN s"},
		{"failure at -Inf", func(sc *Scenario) {
			sc.Failures = []FailureEvent{{Time: -inf, Link: 0}}
		}, "failure event on link 0 at -Inf s"},
		{"update at NaN", func(sc *Scenario) {
			sc.Updates = []PathUpdate{{Time: nan, Flow: 1, Paths: path}}
		}, "path update for commodity 1 at NaN s"},
		{"update at +Inf", func(sc *Scenario) {
			sc.Updates = []PathUpdate{{Time: inf, Flow: 1, Paths: path}}
		}, "path update for commodity 1 at +Inf s"},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s: no panic", tc.name)
				} else if msg := fmt.Sprint(r); !strings.Contains(msg, tc.want) {
					t.Errorf("%s: panic %q does not mention %q", tc.name, msg, tc.want)
				}
			}()
			sc := agreementScenario()
			tc.edit(sc)
			sc.expand()
		}()
	}
}
