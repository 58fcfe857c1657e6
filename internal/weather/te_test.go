package weather

import (
	"math"
	"slices"
	"testing"

	"cisp/internal/netsim"
	"cisp/internal/te"
)

// TestFractions: CapFrac where the link is up, 0 where it failed whatever
// its CapFrac, one fraction per condition, nil conds none.
func TestFractions(t *testing.T) {
	conds := []LinkCondition{
		{CapFrac: 1},
		{CapFrac: 0.25},
		{Failed: true, CapFrac: 0.9}, // Failed wins over any CapFrac
	}
	if got, want := Fractions(conds), []float64{1, 0.25, 0}; !slices.Equal(got, want) {
		t.Fatalf("Fractions = %v, want %v", got, want)
	}
	if got := Fractions(nil); len(got) != 0 {
		t.Fatalf("Fractions(nil) = %v, want no fractions", got)
	}
}

// TestReoptimizeTEStormCycle drives a TE controller through a storm
// interval and back, grading links with netsim.Graded over Fractions the
// way FigTE's rain row does: a diamond whose fast microwave arm fades
// while a parallel fiber-ish detour rides through. Only the commodity
// crossing the faded arm is re-solved; its traffic shifts, then shifts
// back when the interval clears.
func TestReoptimizeTEStormCycle(t *testing.T) {
	mw := []netsim.TopoLink{
		{A: 0, B: 1, RateBps: 10e6, PropDelay: 0.002},
		{A: 1, B: 3, RateBps: 10e6, PropDelay: 0.002},
		// A disjoint pair far from the storm, carrying commodity 2.
		{A: 4, B: 5, RateBps: 10e6, PropDelay: 0.001},
	}
	fiber := []netsim.TopoLink{
		{A: 0, B: 2, RateBps: 10e6, PropDelay: 0.0025},
		{A: 2, B: 3, RateBps: 10e6, PropDelay: 0.0025},
	}
	comms := []netsim.Commodity{
		{Flow: 1, Src: 0, Dst: 3, Demand: 8e6},
		{Flow: 2, Src: 4, Dst: 5, Demand: 2e6},
	}
	links := append(append([]netsim.TopoLink(nil), mw...), fiber...)
	ctrl, err := te.NewController(6, links, comms, te.Config{})
	if err != nil {
		t.Fatal(err)
	}
	clearSplit := ctrl.Solution().Splits[1]
	otherBefore := ctrl.Solution().Splits[2]

	// Stormy interval: the 0-1 hop fades below half rate, 1-3 fails.
	stormy := []LinkCondition{
		{CapFrac: 0.5},
		{Failed: true},
		{CapFrac: 1},
	}
	affected, err := ctrl.UpdateCapacities(netsim.Graded(nil, links, Fractions(stormy), nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 1 || affected[0] != 1 {
		t.Fatalf("affected = %v, want [1]", affected)
	}
	sp := ctrl.Solution().Splits[1]
	if len(sp) != 1 || sp[0].Path[1] != 2 {
		t.Fatalf("stormy split = %+v, want everything on the fiber detour via 2", sp)
	}
	after := ctrl.Solution().Splits[2]
	if len(after) != len(otherBefore) || after[0].Frac != otherBefore[0].Frac {
		t.Fatalf("unaffected commodity re-solved: %+v vs %+v", after, otherBefore)
	}

	// Interval clears: everything back to the clear-sky decision.
	affected, err = ctrl.UpdateCapacities(netsim.Graded(nil, links, Fractions(nil), nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 1 || affected[0] != 1 {
		t.Fatalf("restore affected = %v, want [1]", affected)
	}
	restored := ctrl.Solution().Splits[1]
	if len(restored) != len(clearSplit) {
		t.Fatalf("restored split = %+v, want clear-sky %+v", restored, clearSplit)
	}
	for i := range restored {
		if math.Abs(restored[i].Frac-clearSplit[i].Frac) > 1e-9 {
			t.Fatalf("restored split = %+v, want clear-sky %+v", restored, clearSplit)
		}
	}
}
