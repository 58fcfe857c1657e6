package experiments

import (
	"time"

	"cisp"
	"cisp/internal/netsim"
	"cisp/internal/traffic"
	"cisp/internal/units"
)

// Fig6ScaleResult is one engine's traffic-mix replay measurement.
type Fig6ScaleResult struct {
	Mode         string
	Flows        int // offered flows (after any packet-mode clamp)
	Completed    int
	FCTMedianMs  float64
	FCT95Ms      float64
	FCT99Ms      float64
	MeanRateKbps float64 // mean of per-flow mean rates, completed or not
	WallSeconds  float64
	Events       int64 // simulator events executed during the run
}

// maxPacketScaleFlows bounds the packet engine in Fig6Scale: per-packet
// simulation of a designed backbone is practical to ~10³ flows; beyond
// that the fluid engine is the right tool (that asymmetry is the point of
// the experiment).
const maxPacketScaleFlows = 1500

// simRateScale scales all simulated link rates down from design capacity,
// keeping packet counts sane exactly as the Fig 5/11 studies do.
const simRateScale = 1.0 / 50

// designMixPoint builds the §6.4 design point shared by Fig6Scale, the
// engine benchmarks and the TE experiment: the option's cities plus the
// Google DC sites, a 4:3:3 City-City : City-DC : DC-DC mix, and a greedy
// design at the default budget.
func designMixPoint(opt Options) (s *cisp.Scenario, top *cisp.Topology, designTM traffic.Matrix, err error) {
	base := cisp.NewScenario(cisp.ScenarioConfig{Region: cisp.US, Scale: opt.Scale, Seed: opt.Seed, MaxCities: opt.MaxCities})
	sites := append([]cisp.City(nil), base.Cities...)
	dcStart := len(sites)
	sites = append(sites, cisp.GoogleDCSites()...)
	s = cisp.NewScenario(cisp.ScenarioConfig{Region: cisp.US, Scale: opt.Scale, Seed: opt.Seed, Sites: sites})

	cityIdx := make([]int, dcStart)
	for i := range cityIdx {
		cityIdx[i] = i
	}
	dcIdx := make([]int, len(sites)-dcStart)
	for i := range dcIdx {
		dcIdx[i] = dcStart + i
	}
	designTM = traffic.Mix([]float64{4, 3, 3},
		traffic.PopulationProduct(sites),
		traffic.CityToDC(sites, cityIdx, dcIdx),
		traffic.UniformPairs(len(sites), dcIdx))

	top, err = s.DesignGreedy(designTM, s.DefaultBudget())
	if err != nil {
		return nil, nil, nil, err
	}
	return s, top, designTM, nil
}

// DesignedMixTopology builds the §6.4 design point plus the provisioned
// hybrid simulation links — microwave then fiber, rates scaled by
// simRateScale as in the packet-level studies. Returns the link list,
// node count and the (relative-weight) design mix.
func DesignedMixTopology(opt Options) (links []netsim.TopoLink, nodes int, designTM traffic.Matrix, err error) {
	s, top, designTM, err := designMixPoint(opt)
	if err != nil {
		return nil, 0, nil, err
	}
	plan := s.Provision(top, scaleTo(designTM, opt.simAggregateGbps()))
	mw, fiberLs := hybridSimLinks(s, top, plan, opt.simAggregateGbps(), simRateScale, 100, nil)
	return append(mw, fiberLs...), len(s.Cities), designTM, nil
}

// MixCommodities apportions totalFlows across the mix's site pairs
// (traffic.FlowCounts) and returns the commodity list for a Scenario,
// with demands at simulated (rate-scaled) bps for the option's operating
// point.
func MixCommodities(opt Options, designTM traffic.Matrix, totalFlows int) []netsim.Commodity {
	demand := scaleTo(designTM, opt.simAggregateGbps())
	pairs := traffic.FlowCounts(designTM, totalFlows)
	comms := make([]netsim.Commodity, 0, len(pairs))
	for k, p := range pairs {
		comms = append(comms, netsim.Commodity{
			Flow: k + 1, Src: p.I, Dst: p.J,
			Demand: units.Gbps(demand[p.I][p.J] * simRateScale),
			Count:  p.Count,
		})
	}
	return comms
}

// Fig6Scale extends the Fig 6 line of §5/§6.4 from a 12-node dumbbell to a
// full designed backbone: the 4:3:3 City-City : City-DC : DC-DC traffic
// mix is apportioned into totalFlows concurrent TCP transfers
// (traffic.FlowCounts) and replayed over the designed + fiber hybrid
// topology on the selected engine. Packet mode gives microscopic fidelity
// at ~10³ flows; fluid mode replays the same scenario at 10⁵-10⁶ flows,
// which is where the ROADMAP's "millions of users" traffic lives.
func Fig6Scale(opt Options, mode netsim.Mode, totalFlows int) *Fig6ScaleResult {
	w := opt.out()
	if totalFlows <= 0 {
		totalFlows = 20_000
	}
	clamped := false
	if mode == netsim.PacketMode && totalFlows > maxPacketScaleFlows {
		totalFlows = maxPacketScaleFlows
		clamped = true
	}

	// Sites, mix and design exactly as Fig 11 (the 4:3:3 design point).
	links, nodes, designTM, err := DesignedMixTopology(opt)
	if err != nil {
		fprintf(w, "fig6scale: %v\n", err)
		return nil
	}
	comms := MixCommodities(opt, designTM, totalFlows)

	sc := &netsim.Scenario{
		Nodes: nodes, Links: links, Comms: comms,
		Scheme:    netsim.ShortestPath,
		FlowBytes: 250 << 10,
		Horizon:   300,
		Seed:      opt.Seed,
	}
	start := time.Now() //lint:allow determinism -- wall time is the benchmark's reported metric, not simulation input
	res := sc.Run(mode)
	wall := time.Since(start).Seconds() //lint:allow determinism -- wall time is the benchmark's reported metric, not simulation input

	out := &Fig6ScaleResult{
		Mode:        mode.String(),
		Flows:       len(res.Flows),
		Completed:   res.Completed,
		WallSeconds: wall,
		Events:      res.EventsProcessed,
	}
	if fcts := res.FCTs(); len(fcts) > 0 {
		out.FCTMedianMs = netsim.Percentile(fcts, 50) * 1000
		out.FCT95Ms = netsim.Percentile(fcts, 95) * 1000
		out.FCT99Ms = netsim.Percentile(fcts, 99) * 1000
	}
	sum := 0.0
	for i := range res.Flows {
		sum += res.Flows[i].MeanRateBps
	}
	if len(res.Flows) > 0 {
		out.MeanRateKbps = sum / float64(len(res.Flows)) / 1e3
	}

	fprintf(w, "Fig 6 at scale — §6.4 traffic-mix replay on the designed backbone (%s mode)\n", out.Mode)
	if clamped {
		fprintf(w, "  (packet mode clamped to %d flows; use -mode=fluid for more)\n", maxPacketScaleFlows)
	}
	// Apart from wall(s), every column is seed-deterministic, so figure
	// output stays diffable across -parallel/-workers settings.
	fprintf(w, "%-8s %10s %10s %12s %12s %12s %12s %10s %12s\n",
		"mode", "flows", "completed", "FCT med(ms)", "FCT 95(ms)", "FCT 99(ms)", "rate(kbps)", "wall(s)", "events")
	fprintf(w, "%-8s %10d %10d %12.1f %12.1f %12.1f %12.1f %10.2f %12d\n",
		out.Mode, out.Flows, out.Completed, out.FCTMedianMs, out.FCT95Ms, out.FCT99Ms,
		out.MeanRateKbps, out.WallSeconds, out.Events)
	return out
}
