package resilience_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"cisp/internal/ctlplane/ctltest"
	"cisp/internal/resilience"
	"cisp/internal/te"
)

// TestProtectionResponsePinned pins both views of fast reroute's response
// on the harness backbone: every update each mode's Plan compiles (time,
// flow, every path and fraction bit), its Reroutes and LPSolves, and every
// Stats field Availability reports, over six seeded day-long per-link
// schedules. FRRReopt plans run on a fresh clear-sky controller each.
// It also holds the two views to one decision list: where the last patch
// lands inside the horizon, Plan and Availability count the same FRR
// reroutes.
func TestProtectionResponsePinned(t *testing.T) {
	b := ctltest.Backbone()
	links, comms := b.Links(), ctltest.Commodities()
	newCtrl := func() *te.Controller {
		ctrl, err := te.NewController(b.Nodes, links, comms, te.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	ctrl := newCtrl()
	prot, err := resilience.NewProtection(ctrl, ctrl.Solution().Splits)
	if err != nil {
		t.Fatal(err)
	}

	h := fnv.New64a()
	word := func(v uint64) { binary.Write(h, binary.LittleEndian, v) }
	float := func(f float64) { word(math.Float64bits(f)) }
	updates, agreed := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		sched := resilience.DrawSchedule(resilience.LinkElements(len(links), 3*3600, 20*60), len(links), 86400, seed)
		for _, mode := range []resilience.Mode{resilience.NoProtection, resilience.FRR, resilience.FRRReopt} {
			var ctrl *te.Controller
			if mode == resilience.FRRReopt {
				ctrl = newCtrl()
			}
			plan, err := prot.Plan(sched, mode, ctrl)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, mode, err)
			}
			for _, u := range plan.Updates {
				float(u.Time)
				word(uint64(u.Flow))
				for _, sp := range u.Paths {
					float(sp.Frac)
					for _, v := range sp.Path {
						word(uint64(v))
					}
					word(math.MaxUint64) // path separator
				}
			}
			updates += len(plan.Updates)
			word(uint64(plan.Reroutes))
			word(uint64(plan.LPSolves))

			st, err := prot.Availability(sched, mode)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, mode, err)
			}
			word(uint64(st.Mode))
			float(st.Availability)
			float(st.Nines)
			float(st.MeanStretch)
			float(st.MaxStretch)
			word(uint64(st.Reroutes))

			evs := sched.Events()
			if mode != resilience.FRR || len(evs) == 0 || evs[len(evs)-1].Time+resilience.DetectDelay >= sched.Horizon {
				continue
			}
			agreed++
			if plan.Reroutes != st.Reroutes {
				t.Errorf("seed %d: FRR plan issues %d reroutes, availability counts %d", seed, plan.Reroutes, st.Reroutes)
			}
		}
	}
	if agreed == 0 {
		t.Fatal("no schedule ends early enough to compare Plan and Availability")
	}
	const (
		wantUpdates = 4389
		wantHash    = 0x3f58aca27ae284b6
	)
	if got := h.Sum64(); updates != wantUpdates || got != wantHash {
		t.Errorf("%d updates, hash %#x; want %d, %#x", updates, got, wantUpdates, uint64(wantHash))
	}
}
