package experiments

import (
	"fmt"
	"io"

	"cisp/internal/geo"
	"cisp/internal/netsim"
	"cisp/internal/te"
	"cisp/internal/traffic"
	"cisp/internal/units"
	"cisp/internal/weather"
)

// TETopology is the designed hybrid substrate every designed-backbone
// study routes over, with its design mix: a netsim.Backbone of the
// provisioned microwave links plus the full fiber conduit graph, with
// conduits that parallel a microwave link carried through a midpoint
// transit node — netsim paths are node sequences, so parallel capacity
// must be distinct nodes, and keeping those conduits is exactly what
// gives the control plane a latency-diverse alternative on every built
// link.
type TETopology struct {
	netsim.Backbone
	DesignTM traffic.Matrix // the 4:3:3 design mix (relative weights)
}

// DesignedTETopology builds the §6.4 design point shared by every
// designed-backbone study and the engine benchmarks: the option's cities
// plus the Google DC sites, a 4:3:3 City-City : City-DC : DC-DC mix, a
// greedy design at the default budget, and the provisioned hybrid
// simulation links. Every fiber conduit is kept — including ones parallel
// to built microwave links, via midpoint transit nodes — so the TE
// control plane can split onto fiber where the microwave layer saturates
// or rains out.
func DesignedTETopology(opt Options) (*TETopology, error) {
	s, models := opt.dcWorld()
	designTM := models.mix(4, 3, 3)
	top, err := s.DesignGreedy(designTM, s.DefaultBudget())
	if err != nil {
		return nil, err
	}
	plan := s.Provision(top, scaleTo(designTM, opt.simAggregateGbps()))
	mw, fiber, nodes := hybridLinks(s, top, plan, opt.simAggregateGbps(), nil, true)
	return &TETopology{Backbone: netsim.Backbone{Sites: s.Cities, Nodes: nodes, Mw: mw, Fiber: fiber}, DesignTM: designTM}, nil
}

// DemandCommodities is netsim.DemandCommodities numbering flow IDs from
// 1: the commodity list of every designed-backbone replay and TE plan.
func DemandCommodities(demand traffic.Matrix, totalFlows, flowBytes int, window float64) []netsim.Commodity {
	comms, _ := netsim.DemandCommodities(demand, totalFlows, flowBytes, units.Seconds(window), 1)
	return comms
}

// StormConditions grades every microwave link of the topology under a
// single convective storm parked over the backbone's highest-capacity link
// — the deterministic worst case for a rain study. Links are graded
// city-to-city (one hop; per-tower adaptive modulation is the
// internal/weather year engine's job, not this experiment's).
func StormConditions(tt *TETopology) []weather.LinkCondition {
	best := 0
	for li, l := range tt.Mw {
		if l.RateBps > tt.Mw[best].RateBps ||
			(l.RateBps == tt.Mw[best].RateBps && li < best) {
			best = li
		}
	}
	a := tt.Sites[tt.Mw[best].A].Loc
	b := tt.Sites[tt.Mw[best].B].Loc
	field := &weather.Field{Cells: []weather.StormCell{{
		Center: geo.Point{Lat: (a.Lat + b.Lat) / 2, Lon: (a.Lon + b.Lon) / 2},
		Radius: 150e3,
		PeakMM: 50,
	}}}
	return weather.NewBackboneGeometry(&tt.Backbone).Conditions(field, nil)
}

// TERow is one (workload, scheme, mode) measurement of the TE comparison.
type TERow struct {
	Workload  string // "hotspot" or "rain"
	Scheme    string // "shortest-path", "min-max-utilization" or "te-splits"
	Mode      string // engine mode
	Flows     int
	Completed int
	MLU       units.Utilization // measured max directed-link utilization
	PredMLU   units.Utilization // TE rows: the control plane's predicted MLU
	MeanFCTMs float64
	P99FCTMs  float64
}

// FigTEResult is the full comparison table.
type FigTEResult struct {
	Rows []TERow
}

// Row returns the first row matching the keys, or nil.
func (r *FigTEResult) Row(workload, scheme, mode string) *TERow {
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.Workload == workload && row.Scheme == scheme && row.Mode == mode {
			return row
		}
	}
	return nil
}

// teSchemeName labels the TE rows.
const teSchemeName = "te-splits"

// TE replay shape: flows of teFlowBytes arrive inside teStartSpread
// seconds and the run is measured to teHorizon. DemandCommodities derives
// commodity demands from the same constants, which is what keeps the
// planner's predicted MLU and the measured one on the same scale (measured
// stays lower — the offered window is a fraction of the horizon and flows
// drain).
const (
	teFlowBytes   = 250 << 10
	teStartSpread = 30.0
	teHorizon     = 60.0
)

// FigTE is the traffic-engineering experiment: on the designed hybrid
// backbone (fiber conduits kept parallel to microwave links), it offers a
// hotspot workload (seeded per-pair demand spikes the design never saw)
// and a rain workload (a storm parked on the busiest link, capacities
// graded by adaptive modulation), and compares single-path shortest-path
// and min-max-utilization routing against the control plane's fractional
// splits — in both engine modes, reporting measured MLU and mean/p99 FCT.
func FigTE(opt Options, totalFlows int) *FigTEResult {
	w := opt.out()
	if totalFlows <= 0 {
		totalFlows = 20_000
	}
	tt, err := DesignedTETopology(opt)
	if err != nil {
		fprintf(w, "figte: %v\n", err)
		return nil
	}
	clearLinks := tt.Links()

	// Workload 1 — hotspot: spike 5 pairs of the design mix ×8 — localized
	// surges the backbone was not provisioned for.
	demandHot := traffic.Hotspot(tt.DesignTM, 5, 8, opt.Seed)
	// Workload 2 — rain: the design-mix demand under a graded storm.
	demandRain := tt.DesignTM
	stormLinks := netsim.Graded(nil, clearLinks, weather.Fractions(StormConditions(tt)), nil)

	type workload struct {
		name   string
		demand traffic.Matrix
		links  []netsim.TopoLink // for single-path schemes and simulation
		solve  func(comms []netsim.Commodity) (*te.Solution, error)
	}
	workloads := []workload{
		{
			name:   "hotspot",
			demand: demandHot,
			links:  clearLinks,
			solve: func(comms []netsim.Commodity) (*te.Solution, error) {
				return te.Solve(tt.Nodes, clearLinks, comms, te.Config{})
			},
		},
		{
			name:   "rain",
			demand: demandRain,
			links:  netsim.Live(stormLinks),
			solve: func(comms []netsim.Commodity) (*te.Solution, error) {
				// Clear-sky controller, storm-interval warm reoptimization:
				// the production loop a weather feed would drive.
				ctrl, err := te.NewController(tt.Nodes, clearLinks, comms, te.Config{})
				if err != nil {
					return nil, err
				}
				if _, err := ctrl.UpdateCapacities(stormLinks); err != nil {
					return nil, err
				}
				return ctrl.Solution(), nil
			},
		},
	}

	res := &FigTEResult{}
	fprintf(w, "TE control plane — latency-bounded splits vs single-path routing on the designed backbone\n")
	fprintf(w, "%-8s %-22s %-7s %8s %10s %8s %8s %12s %12s\n",
		"workload", "scheme", "mode", "flows", "completed", "MLU", "predMLU", "FCT mean(ms)", "FCT p99(ms)")
	for _, wl := range workloads {
		fluidComms := DemandCommodities(wl.demand, totalFlows, teFlowBytes, teStartSpread)
		sol, err := wl.solve(fluidComms)
		if err != nil {
			fprintf(w, "figte: %s: %v\n", wl.name, err)
			return nil
		}
		for _, mode := range []netsim.Mode{netsim.PacketMode, netsim.FluidMode} {
			comms := fluidComms
			if mode == netsim.PacketMode && totalFlows > maxPacketFlows {
				comms = DemandCommodities(wl.demand, maxPacketFlows, teFlowBytes, teStartSpread)
			}
			for _, scheme := range []netsim.Scheme{netsim.ShortestPath, netsim.MinMaxUtilization} {
				row := runTEScenario(tt.Nodes, wl.links, comms, scheme, nil, mode, opt.Seed)
				row.Workload, row.Scheme = wl.name, scheme.String()
				res.Rows = append(res.Rows, row)
				printTERow(w, &res.Rows[len(res.Rows)-1])
			}
			row := runTEScenario(tt.Nodes, wl.links, comms, netsim.ShortestPath, sol.Splits, mode, opt.Seed)
			row.Workload, row.Scheme, row.PredMLU = wl.name, teSchemeName, sol.MLU
			res.Rows = append(res.Rows, row)
			printTERow(w, &res.Rows[len(res.Rows)-1])
		}
	}
	return res
}

func runTEScenario(nodes int, links []netsim.TopoLink, comms []netsim.Commodity,
	scheme netsim.Scheme, splits map[int][]netsim.SplitPath, mode netsim.Mode, seed int64) TERow {
	sc := &netsim.Scenario{
		Nodes: nodes, Links: links, Comms: comms,
		Scheme:      scheme,
		Splits:      splits,
		FlowBytes:   teFlowBytes,
		Horizon:     teHorizon,
		StartSpread: teStartSpread,
		Seed:        seed,
	}
	r := sc.Run(mode)
	row := TERow{
		Mode:      mode.String(),
		Flows:     len(r.Flows),
		Completed: r.Completed,
		MLU:       r.MLU,
	}
	if fcts := r.FCTs(); len(fcts) > 0 {
		sum := 0.0
		for _, f := range fcts {
			sum += f
		}
		row.MeanFCTMs = sum / float64(len(fcts)) * 1000
		row.P99FCTMs = netsim.Percentile(fcts, 99) * 1000
	}
	return row
}

func printTERow(w io.Writer, r *TERow) {
	pred := "-"
	if r.PredMLU > 0 {
		pred = fmt.Sprintf("%.3f", r.PredMLU)
	}
	fprintf(w, "%-8s %-22s %-7s %8d %10d %8.3f %8s %12.1f %12.1f\n",
		r.Workload, r.Scheme, r.Mode, r.Flows, r.Completed, r.MLU, pred, r.MeanFCTMs, r.P99FCTMs)
}
