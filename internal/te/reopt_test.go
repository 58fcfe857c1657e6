package te_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cisp/internal/ctlplane/ctltest"
	"cisp/internal/netsim"
	"cisp/internal/te"
	"cisp/internal/units"
)

// backboneController is a default-tuned controller over ctltest.Backbone
// with its clear-sky links.
func backboneController(t *testing.T) (*te.Controller, []netsim.TopoLink) {
	t.Helper()
	bb := ctltest.Backbone()
	links := bb.Links()
	ctrl, err := te.NewController(bb.Nodes, links, ctltest.Commodities(), te.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl, links
}

// faded returns links with link i's rate scaled by f.
func faded(links []netsim.TopoLink, i int, f float64) []netsim.TopoLink {
	out := append([]netsim.TopoLink(nil), links...)
	out[i].RateBps = units.BitsPerSecond(float64(out[i].RateBps) * f)
	return out
}

// warmReoptAllocs bounds the allocations of one fade of microwave link 0
// to 0.25 and back on the ctltest.Backbone controller: two warm re-solves.
// It is the count measured when the controller began reusing its LP
// storage (356 before). Lower it when a change allocates less; raising it
// needs a reason.
const warmReoptAllocs = 120

// TestWarmReoptAllocs ratchets what a warm reoptimization allocates. The
// controller builds and solves every LP after its first on storage it
// keeps, so the count is what the update allocates around the solver.
func TestWarmReoptAllocs(t *testing.T) {
	ctrl, links := backboneController(t)
	down := faded(links, 0, 0.25)
	update := func(l []netsim.TopoLink) {
		if ids, err := ctrl.UpdateCapacities(l); err != nil || len(ids) == 0 {
			t.Fatalf("update re-solved %v: %v", ids, err)
		}
	}
	before := ctrl.LPSolves()
	allocs := testing.AllocsPerRun(20, func() {
		update(down)
		update(links)
	})
	if solves := ctrl.LPSolves() - before; solves != 2*21 {
		t.Fatalf("%d LP solves over 21 runs, want two per run", solves)
	}
	t.Logf("%.0f allocations per fade and recovery", allocs)
	if allocs > warmReoptAllocs {
		t.Fatalf("a fade and recovery allocates %.0f times, the ratchet allows %d", allocs, warmReoptAllocs)
	}
}

// TestFailedUpdateKeepsState fails a warm update's re-solve and requires
// the controller to be the one that never saw the update: the same
// Solution, and the same answers to later updates, a retry of the failed
// one included. Updates with a NaN, infinite or negative rate are
// rejected before any capacity changes.
func TestFailedUpdateKeepsState(t *testing.T) {
	ctrl, links := backboneController(t)
	ref, _ := backboneController(t)

	boom := errors.New("injected solver failure")
	calls := 0
	prev := te.SetSolveFault(func() error {
		calls++
		if calls == 1 {
			return boom
		}
		return nil
	})
	_, err := ctrl.UpdateCapacities(faded(links, 0, 0.25))
	te.SetSolveFault(prev)
	if !errors.Is(err, boom) {
		t.Fatalf("update with a failing solve returned %v, want the injected failure", err)
	}
	sameSolution(t, "after the failed update", ctrl, ref)

	for _, rate := range badValues {
		bad := faded(links, 1, 0.5)
		bad[2].RateBps = units.BitsPerSecond(rate)
		if _, err := ctrl.UpdateCapacities(bad); err == nil {
			t.Fatalf("update with rate %v accepted", rate)
		}
	}
	sameSolution(t, "after the rejected rates", ctrl, ref)

	for k, upd := range [][]netsim.TopoLink{faded(links, 1, 0.5), faded(faded(links, 1, 0.5), 0, 0.25), links} {
		got, err := ctrl.UpdateCapacities(upd)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.UpdateCapacities(upd)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("update %d re-solved %v, the reference %v", k, got, want)
		}
		sameSolution(t, "after a later update", ctrl, ref)
	}
}

// badValues are the rates and demands te refuses: a link cannot carry
// them and a commodity cannot offer them.
var badValues = []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1}

// TestConstructionRejectsBadValues: the rates UpdateCapacities rejects are
// rejected when a controller is built over them, and
// NewController rejects the same values as demands; the error names the
// link or the commodity. A NaN or +Inf Stretch or UtilFloor is refused,
// by Solve too, naming the field; -Inf, like any negative value, keeps
// its default meaning.
func TestConstructionRejectsBadValues(t *testing.T) {
	bb := ctltest.Backbone()
	comms := ctltest.Commodities()
	for _, v := range badValues {
		links := bb.Links()
		links[2].RateBps = units.BitsPerSecond(v)
		if _, err := te.NewController(bb.Nodes, links, comms, te.Config{}); err == nil || !strings.Contains(err.Error(), "link 2 ") {
			t.Errorf("NewController over rate %v: error %v, want one naming link 2", v, err)
		}
		bad := slices.Clone(comms)
		bad[1].Demand = units.BitsPerSecond(v)
		want := fmt.Sprintf("commodity %d ", bad[1].Flow)
		if _, err := te.NewController(bb.Nodes, bb.Links(), bad, te.Config{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("NewController over demand %v: error %v, want one naming %q", v, err, want)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		for _, c := range []struct {
			field string
			cfg   te.Config
		}{
			{"Stretch", te.Config{Stretch: v}},
			{"UtilFloor", te.Config{UtilFloor: units.Utilization(v)}},
		} {
			if _, err := te.Solve(bb.Nodes, bb.Links(), comms, c.cfg); err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("Solve at %s %v: error %v, want one naming %s", c.field, v, err, c.field)
			}
		}
	}
	neg, err := te.NewController(bb.Nodes, bb.Links(), comms, te.Config{Stretch: math.Inf(-1), UtilFloor: units.Utilization(math.Inf(-1))})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := te.NewController(bb.Nodes, bb.Links(), comms, te.Config{Stretch: -1, UtilFloor: -1})
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "at -Inf Stretch and UtilFloor", neg, ref)
}

func sameSolution(t *testing.T, when string, ctrl, ref *te.Controller) {
	t.Helper()
	got, want := ctrl.Solution(), ref.Solution()
	if len(got.Splits) != len(want.Splits) {
		t.Fatalf("%s: %d commodities have splits, the reference %d", when, len(got.Splits), len(want.Splits))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: solution differs from the reference's", when)
	}
}
