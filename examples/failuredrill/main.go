// failuredrill is a scripted failure drill on the designed US backbone:
// a convective storm parks over the busiest microwave link and fades part
// of the mesh, then a backhoe cuts the busiest fiber conduit while the
// storm is still overhead — the compound storm+cut scenario the
// resilience subsystem (DESIGN.md §8) exists for. The drill composes the
// weather interval schedule with the hardware cut (resilience.Merge),
// walks the hour analytically for no-protection vs fast-reroute vs full
// reoptimization, and then replays a compressed version of the drill in
// the fluid engine to show what fast reroute buys real flows: the FRR
// plan activates precomputed link-disjoint backups with zero LP solves
// on the event path.
package main

import (
	"fmt"
	"os"

	"cisp"
	"cisp/internal/experiments"
	"cisp/internal/netsim"
	"cisp/internal/resilience"
	"cisp/internal/te"
	"cisp/internal/traffic"
	"cisp/internal/weather"
)

func main() {
	opt := experiments.Options{Scale: cisp.ScaleSmall, Seed: 3, MaxCities: 12}
	fmt.Println("== Designing the US backbone (Steps 1-3 + fiber conduits) ==")
	tt, err := experiments.DesignedTETopology(opt)
	check(err)
	links := tt.Links()
	fmt.Printf("%d sites, %d microwave links, %d fiber links (midpoint transit nodes: %d)\n\n",
		len(tt.Sites), len(tt.Mw), len(tt.Fiber), tt.Nodes-len(tt.Sites))

	demand := traffic.Hotspot(tt.DesignTM, 5, 8, opt.Seed)
	comms := experiments.DemandCommodities(demand, 4000, 250<<10, 30)
	ctrl, err := te.NewController(tt.Nodes, links, comms, te.Config{K: 8, UtilFloor: -1})
	check(err)
	primaries := ctrl.Solution().Splits
	prot, err := resilience.NewProtection(ctrl, primaries)
	check(err)
	disjoint := 0
	for _, bk := range prot.Backups {
		if bk.Shared == 0 {
			disjoint++
		}
	}
	fmt.Printf("== Fast-reroute state ==\n%d commodities carry traffic; %d have precomputed backups (%d fully link-disjoint)\n\n",
		len(primaries), len(prot.Backups), disjoint)

	// The storm: graded conditions parked on the busiest microwave link,
	// held for 30 minutes of the drill hour (two 900 s intervals).
	conds := experiments.StormConditions(tt)
	stormFailed := 0
	for _, c := range conds {
		if c.Failed {
			stormFailed++
		}
	}
	intervals := [][]weather.LinkCondition{nil, conds, conds, nil}
	storm := resilience.WeatherSchedule(intervals, 900, len(links))

	// The cut: the busiest fiber conduit under the installed primaries,
	// severed mid-storm and spliced 30 minutes later.
	index, _, _ := ctrl.Topology()
	load, err := index.SplitLoad(comms, primaries)
	check(err)
	cut := busiestFiberLink(len(tt.Mw), load)
	hw := &resilience.Schedule{Horizon: 3600, NumLinks: len(links), Outages: []resilience.Outage{
		{Link: cut, Start: 1200, End: 3000},
	}}
	drill, err := resilience.Merge(storm, hw)
	check(err)
	fmt.Printf("== The drill ==\nstorm fades %d/%d microwave links for t=[900,2700)s; fiber link %d (%d-%d) cut for t=[1200,3000)s\n\n",
		stormFailed, len(tt.Mw), cut, links[cut].A, links[cut].B)

	fmt.Println("== Analytic hour (availability, latency stretch of surviving traffic) ==")
	fmt.Printf("%-6s %13s %7s %12s %11s %9s\n", "scheme", "availability", "nines", "meanstretch", "maxstretch", "reroutes")
	for _, mode := range []resilience.Mode{resilience.NoProtection, resilience.FRR, resilience.FRRReopt} {
		st, err := prot.Availability(drill, mode)
		check(err)
		fmt.Printf("%-6s %12.5f%% %7.2f %12.3f %11.3f %9d\n",
			mode, st.Availability*100, st.Nines, st.MeanStretch, st.MaxStretch, st.Reroutes)
	}

	// Compressed replay: the same failures land inside a 60 s fluid run.
	replay := drill.Compress(60)
	fmt.Println("\n== Fluid-engine replay (drill compressed 60:1 into a 60 s run) ==")
	fmt.Printf("%-6s %8s %10s %12s %8s %9s\n", "scheme", "flows", "completed", "FCT p99(ms)", "MLU", "LPsolves")
	for _, mode := range []resilience.Mode{resilience.NoProtection, resilience.FRR, resilience.FRRReopt} {
		var planCtrl *te.Controller
		if mode == resilience.FRRReopt {
			planCtrl = ctrl // the background loop reoptimizes the live controller
		}
		plan, err := prot.Plan(replay, mode, planCtrl)
		check(err)
		sc := &netsim.Scenario{
			Nodes: tt.Nodes, Links: links, Comms: comms,
			Splits:      primaries,
			Failures:    plan.Failures,
			Updates:     plan.Updates,
			FlowBytes:   250 << 10,
			Horizon:     60,
			StartSpread: 30,
			Seed:        opt.Seed,
		}
		r := sc.Run(netsim.FluidMode)
		p99 := 0.0
		if fcts := r.FCTs(); len(fcts) > 0 {
			p99 = netsim.Percentile(fcts, 99) * 1000
		}
		fmt.Printf("%-6s %8d %10d %12.1f %8.3f %9d\n",
			mode, len(r.Flows), r.Completed, p99, r.MLU, plan.LPSolves)
	}
	fmt.Println("\nFast reroute held the drill together with zero LP solves on the event path;")
	fmt.Println("run `cispbench -fig avail` for the full year-scale study with reoptimization.")
}

// busiestFiberLink returns the index of the fiber link, past the first
// nMw microwave links, carrying the most load in its two directions
// together (the first fiber link if no fiber link carries any). load is
// per directed link ID: link i's directions are 2i and 2i+1.
func busiestFiberLink(nMw int, load []float64) int {
	best, most := nMw, load[2*nMw]+load[2*nMw+1]
	for li := nMw + 1; 2*li < len(load); li++ {
		if v := load[2*li] + load[2*li+1]; v > most {
			best, most = li, v
		}
	}
	return best
}

// check exits with err's message when err is not nil.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
