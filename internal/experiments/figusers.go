package experiments

import (
	"io"

	"cisp/internal/workload"
)

// FigUsersResult is the full million-user scenario sweep: one end-to-end
// report per scenario, in the order they ran.
type FigUsersResult struct {
	Reports []*workload.ScenarioReport
}

// Report returns the named scenario's report, or nil.
func (r *FigUsersResult) Report(name string) *workload.ScenarioReport {
	for _, rep := range r.Reports {
		if rep.Name == name {
			return rep
		}
	}
	return nil
}

// UsersBackbone returns the §6.4 designed hybrid substrate
// DesignedTETopology builds for the TE and availability studies, so every
// scenario's population draw rides the very backbone the design layer
// provisioned.
func UsersBackbone(opt Options) (*workload.Backbone, error) {
	tt, err := DesignedTETopology(opt)
	if err != nil {
		return nil, err
	}
	return &tt.Backbone, nil
}

// usersScenarios is the published sweep: a timezone-staggered evening
// peak, a flash crowd converging on the most populous site, a regional
// disaster compounding an evacuation surge with a storm and a fiber
// cut, and CDN replica placement with its provisioning bill.
func usersScenarios(seed int64) []workload.Spec {
	return []workload.Spec{
		{Name: "evening-peak", Kind: workload.Diurnal, Seed: seed},
		{Name: "flash-crowd", Kind: workload.FlashCrowd, Seed: seed},
		{Name: "disaster-storm", Kind: workload.Disaster, Seed: seed},
		{Name: "cdn-anycast", Kind: workload.CDNPlacement, Seed: seed, SinkCount: 4},
	}
}

// FigUsers is the million-user scenario suite: population-driven
// workloads compiled from the city set (per-application demand, diurnal
// activity, surges, failures) and replayed end to end — TE splits on the
// hybrid backbone against shortest-path routing on the fiber baseline,
// both engines on each substrate — reporting the user-visible deltas:
// per-application FCT percentiles and goodput, availability nines when
// the scenario schedules failures, the QoE translation of the RTT gap,
// and the CDN bill when replicas are placed. Reports are bit-identical
// at every worker count.
func FigUsers(opt Options, totalFlows int) *FigUsersResult {
	w := opt.out()
	b, err := UsersBackbone(opt)
	if err != nil {
		fprintf(w, "figusers: %v\n", err)
		return nil
	}
	p := workload.Pipeline{Backbone: b, TotalFlows: totalFlows, Seed: opt.Seed}

	fprintf(w, "Million-user scenarios — population-driven workloads on the designed backbone (%d sites)\n",
		len(b.Sites))
	res := &FigUsersResult{}
	for _, spec := range usersScenarios(opt.Seed) {
		scSp := opt.spanOrRoot("scenario:" + spec.Name)
		c, err := workload.Compile(spec, b)
		if err != nil {
			fprintf(w, "figusers: %s: %v\n", spec.Name, err)
			return nil
		}
		p.Span = scSp
		rep, err := p.Run(c)
		if err != nil {
			fprintf(w, "figusers: %s: %v\n", spec.Name, err)
			return nil
		}
		scSp.SetItems(int64(totalFlows))
		scSp.End()
		res.Reports = append(res.Reports, rep)
		printUsersReport(w, rep)
	}
	return res
}

func printUsersReport(w io.Writer, r *workload.ScenarioReport) {
	fprintf(w, "\n%s (%s): %.2fM active users, %.2f Gbps offered, predicted MLU cisp %.3f / fiber %.3f\n",
		r.Name, r.Kind, r.TotalUsers/1e6, r.OfferedGbps, r.PredMLUCISP, r.PredMLUFiber)
	fprintf(w, "%-6s %-7s %-7s %6s %6s %12s %12s %12s %8s\n",
		"subst", "mode", "app", "flows", "done", "FCT p50(ms)", "FCT p99(ms)", "goodput(kbps)", "RTT(ms)")
	for i := range r.Runs {
		run := &r.Runs[i]
		for _, a := range run.Apps {
			if a.Flows == 0 {
				continue
			}
			fprintf(w, "%-6s %-7s %-7s %6d %6d %12.1f %12.1f %12.0f %8.2f\n",
				run.Substrate, run.Mode, a.App, a.Flows, a.Completed,
				a.P50FCTMs, a.P99FCTMs, a.GoodputKbps, a.RTTMs)
		}
	}
	if r.HasFailures {
		fprintf(w, "availability under %s: cisp %.7f (%.2f nines, %d reroutes) vs fiber %.7f (%.2f nines, %d reroutes)\n",
			r.AvailCISP.Mode, r.AvailCISP.Availability, r.AvailCISP.Nines, r.ReroutesCISP,
			r.AvailFiber.Availability, r.AvailFiber.Nines, r.ReroutesFiber)
	}
	fprintf(w, "QoE: gaming frame %.2f→%.2f ms, page load %.0f→%.0f ms, value $%.2f/GB search + $%.2f/GB gaming (beats cost: %v)\n",
		r.QoE.GamingFrameMsFiber, r.QoE.GamingFrameMsCISP,
		r.QoE.WebPLTMsFiber, r.QoE.WebPLTMsCISP,
		r.QoE.SearchValuePerGB, r.QoE.GamingValuePerGB, r.QoE.BeatsCost)
	if len(r.SinkBills) > 0 {
		fprintf(w, "replicas at sites %v: total backhaul capex $%.0f\n", r.Sinks, r.SinkCapex)
		for _, sb := range r.SinkBills {
			fprintf(w, "  site %d: %.3f Gbps egress, %.0f km backhaul on %s, $%.0f\n",
				sb.Site, sb.EgressGbps, sb.BackhaulKm, sb.Medium, sb.Capex)
		}
	}
}
