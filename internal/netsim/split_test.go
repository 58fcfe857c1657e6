package netsim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"cisp/internal/units"
)

// diamondSplitScenario is the shared fractional-split fixture: a diamond
// with two disjoint equal-capacity paths 0-1-3 and 0-2-3, one commodity
// whose flows are split across them.
func diamondSplitScenario(frac1 float64, count int) *Scenario {
	return &Scenario{
		Nodes: 4,
		Links: []TopoLink{
			{A: 0, B: 1, RateBps: 40e6, PropDelay: 0.002},
			{A: 1, B: 3, RateBps: 40e6, PropDelay: 0.002},
			{A: 0, B: 2, RateBps: 40e6, PropDelay: 0.003},
			{A: 2, B: 3, RateBps: 40e6, PropDelay: 0.003},
		},
		Comms: []Commodity{
			{Flow: 1, Src: 0, Dst: 3, Demand: 10e6, Count: count},
		},
		Splits: map[int][]SplitPath{
			1: {
				{Path: []int{0, 1, 3}, Frac: frac1},
				{Path: []int{0, 2, 3}, Frac: 1 - frac1},
			},
		},
		FlowBytes: 1 << 20,
		Horizon:   60,
		Seed:      7,
	}
}

func TestSplitAssignmentsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	assign := splitAssignments(100, []float64{0.75, 0.25}, rng)
	if len(assign) != 100 {
		t.Fatalf("len = %d, want 100", len(assign))
	}
	counts := map[int]int{}
	for _, pi := range assign {
		counts[pi]++
	}
	if counts[0] != 75 || counts[1] != 25 {
		t.Fatalf("counts = %v, want 75/25", counts)
	}

	// Unnormalized fractions and a non-exact quota: largest remainder keeps
	// the total exact.
	rng = rand.New(rand.NewSource(1))
	assign = splitAssignments(10, []float64{2, 1, 1}, rng)
	counts = map[int]int{}
	for _, pi := range assign {
		counts[pi]++
	}
	if counts[0]+counts[1]+counts[2] != 10 {
		t.Fatalf("total = %d, want 10", counts[0]+counts[1]+counts[2])
	}
	if counts[0] != 5 {
		t.Fatalf("dominant path got %d flows, want 5", counts[0])
	}

	// Deterministic in the rng state.
	a1 := splitAssignments(50, []float64{0.5, 0.5}, rand.New(rand.NewSource(3)))
	a2 := splitAssignments(50, []float64{0.5, 0.5}, rand.New(rand.NewSource(3)))
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("assignment not deterministic at %d: %d vs %d", i, a1[i], a2[i])
		}
	}

	// Pinned: seeded random fractions, some of them ties, hashed over
	// every assignment vector. Rounding, tie order and the shuffle all
	// feed the hash.
	draw := rand.New(rand.NewSource(11))
	h := fnv.New64a()
	var b [8]byte
	for trial := 0; trial < 300; trial++ {
		fracs := make([]float64, 1+draw.Intn(6))
		for i := range fracs {
			fracs[i] = draw.Float64()
			if i > 0 && draw.Intn(4) == 0 {
				fracs[i] = fracs[i-1]
			}
		}
		for _, pi := range splitAssignments(1+draw.Intn(400), fracs, rand.New(rand.NewSource(int64(trial)))) {
			binary.LittleEndian.PutUint64(b[:], uint64(pi))
			h.Write(b[:])
		}
	}
	if got, want := h.Sum64(), uint64(0x7c45901632a258a6); got != want {
		t.Fatalf("seeded assignments hash %#x, want %#x", got, want)
	}
}

// TestScenarioSplitRoutes checks that both engines apportion a commodity's
// flows across its weighted paths exactly and report the resulting link
// loads: with a 75/25 split over two equal disjoint paths, the upper path's
// data links must carry three times the lower path's bytes.
func TestScenarioSplitRoutes(t *testing.T) {
	for _, mode := range []Mode{PacketMode, FluidMode} {
		sc := diamondSplitScenario(0.75, 40)
		res := sc.Run(mode)
		if res.Completed != 40 {
			t.Fatalf("%s: completed %d/40", mode, res.Completed)
		}
		util := map[[2]int]float64{}
		for _, l := range res.LinkLoads {
			util[[2]int{l.From, l.To}] = float64(l.Utilization)
		}
		up, down := util[[2]int{0, 1}], util[[2]int{0, 2}]
		if up <= 0 || down <= 0 {
			t.Fatalf("%s: paths not both used: up=%v down=%v", mode, up, down)
		}
		// Exact apportionment is 30/10 flows; utilization ratio tracks the
		// byte ratio up to protocol overhead and truncation effects.
		if ratio := up / down; ratio < 2.5 || ratio > 3.5 {
			t.Errorf("%s: up/down utilization ratio = %.2f, want ~3", mode, ratio)
		}
		if res.MLU <= 0 {
			t.Errorf("%s: MLU not exported", mode)
		}
		for _, l := range res.LinkLoads {
			if l.Utilization > res.MLU {
				t.Errorf("%s: link %d->%d utilization %.3f exceeds MLU %.3f",
					mode, l.From, l.To, l.Utilization, res.MLU)
			}
		}
	}
}

// TestPacketFluidAgreementOnSplits is the split-route counterpart of
// TestPacketFluidAgreement: per-flow mean rates on fractional splits must
// agree across engines within the shared tolerance.
func TestPacketFluidAgreementOnSplits(t *testing.T) {
	sc := diamondSplitScenario(0.5, 8)
	pkt := sc.Run(PacketMode)
	fl := sc.Run(FluidMode)
	if pkt.Completed != len(pkt.Flows) || fl.Completed != len(fl.Flows) {
		t.Fatalf("incomplete runs: packet %d/%d fluid %d/%d",
			pkt.Completed, len(pkt.Flows), fl.Completed, len(fl.Flows))
	}
	pr := pkt.MeanRateByCommodity()
	fr := fl.MeanRateByCommodity()
	p, f := pr[1], fr[1]
	if p <= 0 || f <= 0 {
		t.Fatalf("non-positive rates packet=%v fluid=%v", p, f)
	}
	if d := math.Abs(p-f) / f; d > packetFluidAgreementTol {
		t.Errorf("split routes: packet %.0f bps vs fluid %.0f bps — %.0f%% apart (tolerance %.0f%%)",
			p, f, d*100, packetFluidAgreementTol*100)
	}
}

// TestScenarioLinkLoadsExported covers the satellite export on the plain
// (non-split) path: per-link utilizations and MLU surface from a run, are
// sorted, and identify the known bottleneck.
func TestScenarioLinkLoadsExported(t *testing.T) {
	sc := agreementScenario()
	for _, mode := range []Mode{PacketMode, FluidMode} {
		res := sc.Run(mode)
		if len(res.LinkLoads) != 4 { // two duplex links
			t.Fatalf("%s: %d link loads, want 4", mode, len(res.LinkLoads))
		}
		for i := 1; i < len(res.LinkLoads); i++ {
			a, b := res.LinkLoads[i-1], res.LinkLoads[i]
			if a.From > b.From || (a.From == b.From && a.To >= b.To) {
				t.Fatalf("%s: link loads not sorted: %v", mode, res.LinkLoads)
			}
		}
		maxU, bottleneck := units.Utilization(0), [2]int{}
		for _, l := range res.LinkLoads {
			if l.Utilization > maxU {
				maxU, bottleneck = l.Utilization, [2]int{l.From, l.To}
			}
		}
		if res.MLU != maxU {
			t.Errorf("%s: MLU = %v, max link utilization = %v", mode, res.MLU, maxU)
		}
		if bottleneck != [2]int{1, 2} {
			t.Errorf("%s: bottleneck = %v, want 1->2", mode, bottleneck)
		}
		// ~6.4 s of transfer over the 60 s horizon: time-average utilization
		// on the bottleneck is ~0.11.
		if res.MLU <= 0.05 {
			t.Errorf("%s: bottleneck utilization %.3f implausibly low", mode, res.MLU)
		}
	}
}

// TestScenarioSplitDeterminism: identical seeds give identical flow results
// and link loads; the per-flow draw is a function of Scenario.Seed.
func TestScenarioSplitDeterminism(t *testing.T) {
	a := diamondSplitScenario(0.6, 30).Run(FluidMode)
	b := diamondSplitScenario(0.6, 30).Run(FluidMode)
	if len(a.Flows) != len(b.Flows) {
		t.Fatalf("flow counts differ: %d vs %d", len(a.Flows), len(b.Flows))
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Fatalf("flow %d differs: %+v vs %+v", i, a.Flows[i], b.Flows[i])
		}
	}
	for i := range a.LinkLoads {
		if a.LinkLoads[i] != b.LinkLoads[i] {
			t.Fatalf("link load %d differs: %+v vs %+v", i, a.LinkLoads[i], b.LinkLoads[i])
		}
	}
}

func TestSplitPanicsOnDisconnectedPath(t *testing.T) {
	sc := diamondSplitScenario(0.5, 4)
	sc.Splits[1][0].Path = []int{0, 1} // does not reach Dst 3
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on a split path that misses the commodity destination")
		}
	}()
	sc.Run(FluidMode)
}
