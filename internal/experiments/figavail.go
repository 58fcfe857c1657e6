package experiments

import (
	"fmt"
	"io"
	"slices"

	"cisp/internal/netsim"
	"cisp/internal/resilience"
	"cisp/internal/te"
	"cisp/internal/traffic"
	"cisp/internal/units"
)

// AvailRow is one (study, scheme, mode) measurement of the availability
// experiment.
type AvailRow struct {
	Study  string // "year" (analytic) or "sim" (engine replay)
	Scheme string // "none", "frr" or "reopt"
	Mode   string // "-" for year rows, engine mode for sim rows

	Availability float64 // fraction of (time × demand) with a live path
	Nines        float64
	MeanStretch  float64 // latency stretch of live traffic during failures
	MaxStretch   float64
	Reroutes     int

	// Sim rows only.
	Flows     int
	Completed int
	P99FCTMs  float64
	MLU       units.Utilization // measured max link utilization over the run
	PredMLU   units.Utilization // planning-side MLU with all scheduled links down
	LPSolves  int64             // simplex solves on the plan's event path
}

// FigAvailResult is the full availability comparison.
type FigAvailResult struct {
	Rows []AvailRow

	// FailedLinks are the microwave link indices the sim study fails — the
	// three most loaded links under the TE primaries.
	FailedLinks []int
}

// Row returns the first row matching the keys, or nil.
func (r *FigAvailResult) Row(study, scheme, mode string) *AvailRow {
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.Study == study && row.Scheme == scheme && row.Mode == mode {
			return row
		}
	}
	return nil
}

// availModes is the protection ladder the experiment compares.
var availModes = []resilience.Mode{resilience.NoProtection, resilience.FRR, resilience.FRRReopt}

// availTECfg is the control-plane configuration of the availability study:
// the candidate pool is widened to the protection layer's K so the backup
// search and the reoptimizer work from the same path set, and the classic
// min-MLU objective (no uncongested hinge) makes "full reoptimization
// spreads load no worse than fast reroute's single backup" a provable
// property rather than a tendency — the reopt LP optimizes over a superset
// of the splits FRR patches in.
func availTECfg() te.Config { return te.Config{K: 8, UtilFloor: -1} }

// simFailureSchedule fails the three most-loaded microwave links on a
// staggered timetable with a window where all three are down together —
// the fixed drill of the simulation study.
func simFailureSchedule(failed []int, nLinks int) *resilience.Schedule {
	s := &resilience.Schedule{Horizon: teHorizon, NumLinks: nLinks}
	windows := [][2]float64{{10, 50}, {20, 55}, {30, 45}}
	for k, li := range failed {
		w := windows[k%len(windows)]
		s.Outages = append(s.Outages, resilience.Outage{Link: li, Start: w[0], End: w[1]})
	}
	return s
}

// allDownTime is an instant inside every outage of simFailureSchedule.
const allDownTime = 35.0

// FigAvail is the failure-resilience experiment: on the designed hybrid
// backbone carrying the hotspot workload, it compares no protection,
// fast reroute (precomputed link-disjoint backups, zero LP solves on the
// event path) and full reoptimization (FRR bridging into a te.Controller's
// warm background re-solve) along two axes. The year study draws a seeded
// MTBF/MTTR outage schedule over tower-weighted microwave links, fiber
// conduits and whole cities, and walks it analytically — availability,
// nines and stretch-under-failure per scheme. The sim study fails the
// three most-loaded microwave links mid-replay and measures both engines:
// completions, p99 FCT, measured MLU, and the planning-side MLU with all
// three links down.
func FigAvail(opt Options, totalFlows int) *FigAvailResult {
	w := opt.out()
	if totalFlows <= 0 {
		totalFlows = 20_000
	}
	tt, err := DesignedTETopology(opt)
	if err != nil {
		fprintf(w, "figavail: %v\n", err)
		return nil
	}
	links := tt.Links()
	demand := traffic.Hotspot(tt.DesignTM, 5, 8, opt.Seed)
	comms := DemandCommodities(demand, totalFlows, teFlowBytes, teStartSpread)

	ctrl, err := te.NewController(tt.Nodes, links, comms, availTECfg())
	if err != nil {
		fprintf(w, "figavail: clear-sky TE solve: %v\n", err)
		return nil
	}
	primaries := ctrl.Solution().Splits
	prot, err := resilience.NewProtection(ctrl, primaries)
	if err != nil {
		fprintf(w, "figavail: protection: %v\n", err)
		return nil
	}

	res := &FigAvailResult{}
	fprintf(w, "Failure resilience — availability on the designed backbone (hotspot workload, %d sites)\n", len(tt.Sites))

	// ------------------------------------------------------------------
	// Year study: hardware outages drawn from MTBF/MTTR elements.
	// ------------------------------------------------------------------
	els := resilience.TowerElements(tt.Mw, 100e3, 180*86400, 6*3600)
	// One element per physical conduit: a conduit kept parallel to a
	// microwave link arrives as two consecutive midpoint half-links
	// (city-midpoint, midpoint-city), and one backhoe severs both halves.
	for i, conduit := 0, 0; i < len(tt.Fiber); i, conduit = i+1, conduit+1 {
		covered := []int{len(tt.Mw) + i}
		if tt.Fiber[i].B >= len(tt.Sites) && i+1 < len(tt.Fiber) && tt.Fiber[i+1].A == tt.Fiber[i].B {
			i++
			covered = append(covered, len(tt.Mw)+i)
		}
		els = append(els, resilience.Element{
			Name: fmt.Sprintf("conduit-%d", conduit), Links: covered,
			MTBF: 365 * 86400, MTTR: 12 * 3600, // conduit cuts are rarer but slower to splice
		})
	}
	sites := make([]int, len(tt.Sites))
	for i := range sites {
		sites[i] = i
	}
	els = append(els, resilience.CityElements(links, sites, 2*365*86400, 2*3600)...)
	year := resilience.DrawSchedule(els, len(links), 365*86400, opt.Seed)
	fprintf(w, "year study: %d elements, %d outages across 365 days, %d protected commodities\n",
		len(els), len(year.Outages), len(primaries))
	fprintf(w, "%-6s %12s %7s %12s %11s %9s\n",
		"scheme", "availability", "nines", "meanstretch", "maxstretch", "reroutes")
	for _, mode := range availModes {
		st, err := prot.Availability(year, mode)
		if err != nil {
			fprintf(w, "figavail: %s availability: %v\n", mode, err)
			return nil
		}
		res.Rows = append(res.Rows, AvailRow{
			Study: "year", Scheme: mode.String(), Mode: "-",
			Availability: st.Availability, Nines: st.Nines,
			MeanStretch: st.MeanStretch, MaxStretch: st.MaxStretch,
			Reroutes: st.Reroutes,
		})
		fprintf(w, "%-6s %11.5f%% %7.2f %12.3f %11.3f %9d\n",
			mode.String(), st.Availability*100, st.Nines, st.MeanStretch, st.MaxStretch, st.Reroutes)
	}

	// ------------------------------------------------------------------
	// Sim study: the three most-loaded microwave links fail mid-replay.
	// ------------------------------------------------------------------
	index, _, _ := ctrl.Topology()
	primLoad, err := index.SplitLoad(comms, primaries)
	if err != nil {
		fprintf(w, "figavail: primaries' load: %v\n", err)
		return nil
	}
	load := make([]float64, len(tt.Mw)) // both directions of each microwave link
	for li := range load {
		load[li] = primLoad[2*li] + primLoad[2*li+1]
	}
	for k := 0; k < 3 && k < len(load); k++ {
		best := -1
		for li, v := range load {
			if !slices.Contains(res.FailedLinks, li) && (best < 0 || v > load[best]) {
				best = li
			}
		}
		res.FailedLinks = append(res.FailedLinks, best)
	}
	sched := simFailureSchedule(res.FailedLinks, len(links))
	downAll := sched.DownAt(allDownTime)
	degraded := netsim.Graded(nil, links, nil, downAll)

	fprintf(w, "sim study: mw links %v fail on a staggered schedule (all down around t=%.0fs)\n",
		res.FailedLinks, allDownTime)
	fprintf(w, "%-6s %-7s %8s %10s %8s %12s %8s %8s %9s\n",
		"scheme", "mode", "flows", "completed", "avail%", "FCT p99(ms)", "MLU", "predMLU", "LPsolves")
	for _, mode := range availModes {
		// Only the FRRReopt plan (the last mode) drives the clear-sky
		// controller, through the schedule's capacity states (the warm
		// background loop); primaries stay the clear-sky splits.
		plan, err := prot.Plan(sched, mode, ctrl)
		if err != nil {
			fprintf(w, "figavail: %s plan: %v\n", mode, err)
			return nil
		}
		st, err := prot.Availability(sched, mode)
		if err != nil {
			fprintf(w, "figavail: %s availability: %v\n", mode, err)
			return nil
		}

		// Planning-side MLU with every scheduled link down: the FRR patch
		// for none/frr, the controller's re-solved splits for reopt.
		var predMLU units.Utilization
		switch mode {
		case resilience.NoProtection:
			predMLU = netsim.MaxUtilization(degraded, primLoad)
		case resilience.FRR:
			var frrLoad []float64
			if frrLoad, err = index.SplitLoad(comms, prot.Patched(downAll)); err == nil {
				predMLU = netsim.MaxUtilization(degraded, frrLoad)
			}
		case resilience.FRRReopt:
			// Plan compilation left ctrl at the schedule's final
			// (restored) state; one warm re-solve puts it at the compound
			// all-down state — no second controller, no re-enumeration.
			if _, cerr := ctrl.UpdateCapacities(degraded); cerr != nil {
				err = cerr
			} else {
				predMLU = ctrl.Solution().MLU
			}
		}
		if err != nil {
			fprintf(w, "figavail: %s predicted MLU: %v\n", mode, err)
			return nil
		}

		for _, engine := range []netsim.Mode{netsim.PacketMode, netsim.FluidMode} {
			simComms := comms
			if engine == netsim.PacketMode && totalFlows > maxPacketFlows {
				simComms = DemandCommodities(demand, maxPacketFlows, teFlowBytes, teStartSpread)
			}
			sc := &netsim.Scenario{
				Nodes: tt.Nodes, Links: links, Comms: simComms,
				Splits:      primaries,
				Failures:    plan.Failures,
				Updates:     plan.Updates,
				FlowBytes:   teFlowBytes,
				Horizon:     teHorizon,
				StartSpread: teStartSpread,
				Seed:        opt.Seed,
			}
			r := sc.Run(engine)
			row := AvailRow{
				Study: "sim", Scheme: mode.String(), Mode: engine.String(),
				Availability: st.Availability, Nines: st.Nines,
				MeanStretch: st.MeanStretch, MaxStretch: st.MaxStretch,
				Reroutes: plan.Reroutes,
				Flows:    len(r.Flows), Completed: r.Completed,
				MLU: r.MLU, PredMLU: predMLU, LPSolves: plan.LPSolves,
			}
			if fcts := r.FCTs(); len(fcts) > 0 {
				row.P99FCTMs = netsim.Percentile(fcts, 99) * 1000
			}
			res.Rows = append(res.Rows, row)
			printAvailRow(w, &res.Rows[len(res.Rows)-1])
		}
	}
	return res
}

func printAvailRow(w io.Writer, r *AvailRow) {
	fprintf(w, "%-6s %-7s %8d %10d %7.3f%% %12.1f %8.3f %8.3f %9d\n",
		r.Scheme, r.Mode, r.Flows, r.Completed, r.Availability*100, r.P99FCTMs, r.MLU, r.PredMLU, r.LPSolves)
}
