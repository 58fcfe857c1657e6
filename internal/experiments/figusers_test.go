package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"cisp"
	"cisp/internal/parallel"
	"cisp/internal/workload"
)

// usersTestOpt keeps the scenario-suite tests fast: a 10-city designed
// backbone exercises design → workload compile → TE/FRR → both engines.
func usersTestOpt() Options {
	return Options{Scale: cisp.ScaleSmall, Seed: 1, MaxCities: 10}
}

// usersTestFlows keeps each scenario's replay small enough for the test
// tier while still multiplexing every class onto the backbone.
const usersTestFlows = 600

// TestFigUsersAcceptance is the suite's headline criterion: the sweep
// reports user-visible deltas for all four scenario kinds, every run
// completes its flows, the hybrid's RTT advantage shows up in every
// scenario's QoE, and the disaster scenario reports availability from
// the reoptimizing control loop.
func TestFigUsersAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tier: four end-to-end scenario replays on a designed backbone")
	}
	var out bytes.Buffer
	opt := usersTestOpt()
	opt.Out = &out
	res := FigUsers(opt, usersTestFlows)
	if res == nil {
		t.Fatalf("FigUsers returned nil:\n%s", out.String())
	}
	if strings.Contains(out.String(), "figusers:") {
		t.Fatalf("sweep reported errors:\n%s", out.String())
	}
	if len(res.Reports) != 4 {
		t.Fatalf("%d reports, want 4", len(res.Reports))
	}
	kinds := map[string]bool{}
	for _, rep := range res.Reports {
		kinds[rep.Kind] = true
		if rep.TotalUsers <= 0 || rep.OfferedGbps <= 0 {
			t.Fatalf("%s: degenerate demand: %+v users, %v Gbps", rep.Name, rep.TotalUsers, rep.OfferedGbps)
		}
		if len(rep.Runs) != 4 {
			t.Fatalf("%s: %d runs, want 4 (2 substrates × 2 engines)", rep.Name, len(rep.Runs))
		}
		// Surged scenarios run congested by design, so a handful of flows
		// may still be draining at the horizon; anything below 95% means
		// the replay is misconfigured, not merely congested.
		for _, run := range rep.Runs {
			if run.Flows == 0 || float64(run.Completed) < 0.95*float64(run.Flows) {
				t.Fatalf("%s %s/%s: completed %d/%d flows", rep.Name, run.Substrate, run.Mode, run.Completed, run.Flows)
			}
		}
		if rep.QoE.GamingFrameMsCISP >= rep.QoE.GamingFrameMsFiber {
			t.Errorf("%s: gaming frame time did not improve on the hybrid", rep.Name)
		}
		if rep.QoE.WebPLTMsCISP >= rep.QoE.WebPLTMsFiber {
			t.Errorf("%s: page-load time did not improve on the hybrid", rep.Name)
		}
	}
	for _, k := range []string{"diurnal", "flashcrowd", "disaster", "cdn"} {
		if !kinds[k] {
			t.Errorf("no %s scenario in the sweep", k)
		}
	}

	dis := res.Report("disaster-storm")
	if dis == nil || !dis.HasFailures {
		t.Fatal("disaster scenario reported no failure section")
	}
	if dis.AvailCISP.Mode.String() != "reopt" || dis.ReroutesCISP == 0 {
		t.Fatalf("disaster availability not from the reoptimizing loop: %+v", dis.AvailCISP)
	}
	if av := dis.AvailCISP.Availability; av <= 0 || av > 1 {
		t.Fatalf("disaster availability %v outside (0, 1]", av)
	}

	cdn := res.Report("cdn-anycast")
	if cdn == nil || len(cdn.Sinks) != 4 {
		t.Fatalf("cdn scenario placed %v sinks, want 4", cdn.Sinks)
	}
}

// TestFigUsersDeterministicAcrossWorkers pins the bit-identical contract
// at the experiment level: the whole sweep — every percentile, rate,
// nine, and bill — is identical at one worker and at eight, and so is
// the rendered text.
func TestFigUsersDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tier: runs the whole sweep twice")
	}
	run := func(workers int) (*FigUsersResult, string) {
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		var out bytes.Buffer
		opt := usersTestOpt()
		opt.Out = &out
		return FigUsers(opt, usersTestFlows), out.String()
	}
	seq, seqText := run(1)
	par, parText := run(8)
	if seq == nil || par == nil {
		t.Fatal("FigUsers returned nil")
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("sweep results differ across worker counts")
	}
	if seqText != parText {
		t.Fatalf("rendered sweep differs across worker counts:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s", seqText, parText)
	}
}

// TestUsersBackboneShape: the adapter must hand the workload layer the
// designed substrate unchanged — sites with populations, microwave
// first, and the fiber conduit graph with its midpoint transit nodes.
func TestUsersBackboneShape(t *testing.T) {
	b, err := UsersBackbone(usersTestOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Sites) == 0 || len(b.Mw) == 0 || len(b.Fiber) == 0 {
		t.Fatalf("degenerate backbone: %d sites, %d mw, %d fiber", len(b.Sites), len(b.Mw), len(b.Fiber))
	}
	if b.Nodes <= len(b.Sites) {
		t.Fatalf("no fiber midpoints: nodes = %d, sites = %d", b.Nodes, len(b.Sites))
	}
	pop := 0
	for _, s := range b.Sites {
		pop += s.Population
	}
	if pop <= 0 {
		t.Fatal("sites carry no population — nothing to draw users from")
	}
	h := b.Links()
	if len(h) != len(b.Mw)+len(b.Fiber) {
		t.Fatalf("hybrid has %d links, want %d", len(h), len(b.Mw)+len(b.Fiber))
	}
	for i := range b.Mw {
		if h[i] != b.Mw[i] {
			t.Fatal("hybrid is not microwave-first (weather grading relies on the ordering)")
		}
	}
	if _, err := workload.Compile(workload.Spec{Kind: workload.Diurnal}, b); err != nil {
		t.Fatalf("designed backbone does not compile a workload: %v", err)
	}
}
