package los_test

import (
	"sync"
	"testing"

	"cisp/internal/cities"
	"cisp/internal/geo"
	"cisp/internal/los"
	"cisp/internal/terrain"
	"cisp/internal/towers"
)

// hop is one candidate tower pair with its antennas' heights above sea
// level.
type hop struct {
	a, b       geo.Point
	aASL, bASL float64
}

var planWorld struct {
	sync.Once
	ev   *los.Evaluator
	hops []hop
}

// planHops returns the candidate hops of the plan benchmark's world (25
// US cities, small scale, seed 1) in Step 1's order, and the evaluator
// that tests them: the same towers, terrain and parameters NewScenario
// builds.
func planHops() (*los.Evaluator, []hop) {
	planWorld.Do(func() {
		cs := cities.USCenters()[:25]
		reg := towers.Generate(towers.GenConfig{Seed: 2, RuralPerCell: 0.7, CityTowerScale: 8}, cs)
		ev := los.NewEvaluator(terrain.ContiguousUS(1), los.DefaultParams())
		reg.Pairs(ev.Params.MaxRange, func(i, j int) {
			ti, tj := reg.Tower(i), reg.Tower(j)
			planWorld.hops = append(planWorld.hops, hop{ti.Loc, tj.Loc, ev.AntennaASL(ti), ev.AntennaASL(tj)})
		})
		planWorld.ev = ev
	})
	return planWorld.ev, planWorld.hops
}

// TestStep1WorkPinned pins the work Step 1 does over the plan world's
// candidate hops, on one goroutine: the points computed, the relief noise
// octaves and the clutter fields evaluated, all exact. The verdicts cannot
// depend on this work, so only a pin sees a change that loses the
// per-hop crest cull, the patch ceiling or the octave-by-octave
// refinement. For scale: a kernel that computed every sample's point and
// completed every straddling surface in full did 3 110 809 points and
// 1 316 003 surfaces of 4 relief octaves and a clutter field each.
func TestStep1WorkPinned(t *testing.T) {
	ev, hops := planHops()
	var points, octaves, clutter, sampled int
	prev := los.SetObserver(func(p, o, c int) {
		points += p
		octaves += o
		clutter += c
		sampled++
	})
	defer los.SetObserver(prev)
	feasible := 0
	for _, h := range hops {
		if ev.PointFeasible(h.a, h.b, h.aASL, h.bASL) {
			feasible++
		}
	}
	got := [6]int{len(hops), feasible, sampled, points, octaves, clutter}
	want := [6]int{29959, 27201, 29959, 2187220, 2229248, 101952}
	if got != want {
		t.Errorf("hops, feasible, sampled, points, relief octaves, clutter fields = %v, want %v", got, want)
	}
}

// TestPointFeasibleDoesNotAllocate holds the Step-1 kernel at zero
// allocations per hop over a batch of the plan world's hops.
func TestPointFeasibleDoesNotAllocate(t *testing.T) {
	ev, hops := planHops()
	batch := hops[:2000]
	allocs := testing.AllocsPerRun(5, func() {
		for _, h := range batch {
			ev.PointFeasible(h.a, h.b, h.aASL, h.bASL)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per batch of %d hops, want 0", allocs, len(batch))
	}
}
