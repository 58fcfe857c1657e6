package workload

import (
	"fmt"
	"math"

	"cisp/internal/cities"
	"cisp/internal/econ"
	"cisp/internal/gaming"
	"cisp/internal/media"
	"cisp/internal/netsim"
	"cisp/internal/obs"
	"cisp/internal/parallel"
	"cisp/internal/resilience"
	"cisp/internal/te"
	"cisp/internal/units"
	"cisp/internal/webpage"
)

// Substrate labels of a scenario's paired runs.
const (
	SubstrateCISP  = "cisp"  // hybrid backbone, TE fractional splits
	SubstrateFiber = "fiber" // fiber-only baseline, shortest-path routing
)

// Pipeline runs compiled scenarios end to end: TE splits on the hybrid
// backbone against shortest-path routing on the fiber-only baseline,
// fast-reroute plans when the scenario schedules failures, and both
// netsim engines on each substrate. Zero-value fields take defaults; the
// same pipeline and compiled scenario always produce a bit-identical
// report at every parallelism level.
type Pipeline struct {
	Backbone *Backbone

	TotalFlows  int     // fluid-scale concurrent flows (default 20 000)
	PacketFlows int     // packet-engine clamp (default 1 500)
	Window      float64 // flow arrival window, seconds (default 30)
	Horizon     float64 // replay horizon, seconds (default 60)
	Seed        int64

	// Span, when non-nil, parents the stage spans Run opens (te-solve,
	// protect, the four replay legs) on the active obs tracer. Nil is
	// fine: stage timings still reach the metrics registry, only the
	// trace nesting is absent.
	Span *obs.Span
}

func (p Pipeline) withDefaults() Pipeline {
	if p.TotalFlows <= 0 {
		p.TotalFlows = 20_000
	}
	if p.PacketFlows <= 0 {
		p.PacketFlows = 1500
	}
	if p.PacketFlows > p.TotalFlows {
		p.PacketFlows = p.TotalFlows
	}
	if p.Window <= 0 {
		p.Window = 30
	}
	if p.Horizon <= 0 {
		p.Horizon = 60
	}
	return p
}

// AppStats is one application class's outcome in one run.
type AppStats struct {
	App          string
	Flows        int
	Completed    int
	P50FCTMs     float64 // completed flows only
	P99FCTMs     float64
	MeanRateKbps float64 // over flows that reported a rate

	// GoodputKbps is the class's aggregate drain rate: completed payload
	// bytes over the span from the class's first flow start to its last
	// completion. Unlike the mean of per-flow rates — which TCP's
	// short-flow favoritism skews upward relative to max-min sharing —
	// this is bottleneck-limited in both engines, so it is the quantity
	// the cross-engine agreement tests pin.
	GoodputKbps float64

	RTTMs float64 // demand-weighted propagation RTT on the substrate
}

// RunStats is one (substrate, engine) run of a scenario.
type RunStats struct {
	Substrate string // SubstrateCISP or SubstrateFiber
	Mode      string // "packet" or "fluid"
	Flows     int
	Completed int
	MLU       units.Utilization
	Apps      [NumApps]AppStats
}

// QoE is the §7/§8 quality-of-experience translation of the measured
// latency deltas: what the RTT gap between the substrates means for a
// gamer's frame time, a page load, and the economics.
type QoE struct {
	GamingFrameMsFiber float64 // mean frame time over the fiber baseline
	GamingFrameMsCISP  float64 // with the low-latency path carrying inputs
	WebPLTMsFiber      float64 // mean page-load time, corpus replay
	WebPLTMsCISP       float64

	// SearchValuePerGB prices the measured PLT speedup against the web
	// traffic carried (§8); GamingValuePerGB is the paper's VPN
	// comparison; BeatsCost reports both against the ~$0.81/GB network
	// cost.
	SearchValuePerGB float64
	GamingValuePerGB float64
	BeatsCost        bool
}

// SinkBill is the provisioning bill of one placed CDN replica: its egress
// demand backhauled to the nearest origin data center on the cheapest
// physical medium (internal/media).
type SinkBill struct {
	Site       int
	EgressGbps float64
	BackhaulKm units.Km
	Medium     string
	Capex      float64
}

// ScenarioReport is the end-to-end outcome of one scenario: four runs
// (two substrates × two engines), availability when failures were
// scheduled, the QoE translation, and the CDN bill when replicas were
// placed. All fields are deterministic — no wall-clock anywhere.
type ScenarioReport struct {
	Name        string
	Kind        string
	TotalUsers  float64
	OfferedGbps float64
	Sinks       []int

	PredMLUCISP  units.Utilization // TE solution's predicted MLU on the hybrid
	PredMLUFiber units.Utilization // shortest-path baseline's MLU

	Runs []RunStats // cisp/fluid, cisp/packet, fiber/fluid, fiber/packet

	// HasFailures reports whether the scenario scheduled outages; the
	// nines and stretch fields are only meaningful when it did. The
	// availability walk runs over the drill-time schedule (real
	// durations), while the replay runs its compressed image.
	HasFailures bool
	AvailCISP   resilience.Stats
	AvailFiber  resilience.Stats

	QoE QoE

	SinkBills []SinkBill // CDNPlacement only
	SinkCapex float64    // Σ SinkBills

	ReroutesCISP  int // fast-reroute path updates the hybrid plan issued
	ReroutesFiber int
}

// Run returns the named run, or nil.
func (r *ScenarioReport) Run(substrate, mode string) *RunStats {
	for i := range r.Runs {
		if r.Runs[i].Substrate == substrate && r.Runs[i].Mode == mode {
			return &r.Runs[i]
		}
	}
	return nil
}

// runSpec is one (substrate, engine) simulation of the fan-out.
type runSpec struct {
	substrate string
	mode      netsim.Mode
	nodes     int
	links     []netsim.TopoLink
	comms     []netsim.Commodity
	splits    map[int][]netsim.SplitPath
	failures  []netsim.FailureEvent
	updates   []netsim.PathUpdate
}

// Run executes a compiled scenario end to end. The four (substrate,
// engine) replays fan out on the shared worker pool; results are
// chunk-ordered, so the report is bit-identical at every worker count. A
// NaN or infinite Window or Horizon is refused before anything runs.
func (p Pipeline) Run(c *Compiled) (*ScenarioReport, error) {
	if math.IsNaN(p.Window) || math.IsInf(p.Window, 0) {
		return nil, fmt.Errorf("workload: pipeline Window %v s", p.Window)
	}
	if math.IsNaN(p.Horizon) || math.IsInf(p.Horizon, 0) {
		return nil, fmt.Errorf("workload: pipeline Horizon %v s", p.Horizon)
	}
	p = p.withDefaults()
	b := p.Backbone
	if b == nil {
		b = c.Backbone
	}
	if b == nil {
		return nil, fmt.Errorf("workload: pipeline has no backbone")
	}
	hybrid := b.Links()

	fluidComms, appOf := c.Commodities(p.TotalFlows, p.Window)
	packetComms, _ := c.Commodities(p.PacketFlows, p.Window)
	if len(fluidComms) == 0 {
		return nil, fmt.Errorf("workload: scenario %q compiled to no commodities", c.Spec.Name)
	}

	// Control planes: TE fractional splits on the hybrid, single
	// shortest paths (K 1) on the fiber baseline. Each controller's
	// clear-sky solution gives the replay splits and the protection
	// primaries; the same controller then drives its substrate's FRRReopt
	// plan.
	snk := obs.Active()
	teSp := p.Span.Child("te-solve")
	teStop := snk.StartTimer("cisp_workload_stage_seconds", "stage", "te-solve")
	ctrlH, err := te.NewController(b.Nodes, hybrid, fluidComms, te.Config{})
	if err != nil {
		return nil, fmt.Errorf("workload: hybrid TE solve: %w", err)
	}
	ctrlF, err := te.NewController(b.Nodes, b.Fiber, fluidComms, te.Config{K: 1})
	if err != nil {
		return nil, fmt.Errorf("workload: fiber baseline solve: %w", err)
	}
	solH, solF := ctrlH.Solution(), ctrlF.Solution()
	teStop()
	teSp.SetItems(int64(len(fluidComms)))
	teSp.End()

	rep := &ScenarioReport{
		Name:         c.Spec.Name,
		Kind:         c.Spec.Kind.String(),
		TotalUsers:   c.TotalUsers,
		OfferedGbps:  c.OfferedGbps,
		Sinks:        append([]int(nil), c.Sinks...),
		PredMLUCISP:  solH.MLU,
		PredMLUFiber: solF.MLU,
	}

	// Failure response: the full production loop — fast reroute backed by
	// warm reoptimization (FRRReopt). A regional storm can kill a
	// commodity's microwave primary and backup together; only the
	// background controller rescues those fractions onto fiber. Plans are
	// compiled against the replay-compressed schedule, availability walked
	// over the drill-time one.
	var failH, failF []netsim.FailureEvent
	var updH, updF []netsim.PathUpdate
	if c.Schedule != nil {
		rep.HasFailures = true
		protSp := p.Span.Child("protect")
		protStop := snk.StartTimer("cisp_workload_stage_seconds", "stage", "protect")
		protH, err := resilience.NewProtection(ctrlH, solH.Splits)
		if err != nil {
			return nil, fmt.Errorf("workload: hybrid protection: %w", err)
		}
		planH, err := protH.Plan(c.Schedule.Compress(p.Horizon), resilience.FRRReopt, ctrlH)
		if err != nil {
			return nil, fmt.Errorf("workload: hybrid FRR plan: %w", err)
		}
		failH, updH = planH.Failures, planH.Updates
		rep.ReroutesCISP = planH.Reroutes
		if rep.AvailCISP, err = protH.Availability(c.Schedule, resilience.FRRReopt); err != nil {
			return nil, fmt.Errorf("workload: hybrid availability: %w", err)
		}

		// The fiber baseline sees the same drill restricted to its own
		// link list: microwave fades vanish, the conduit cut keeps biting.
		nMw := len(b.Mw)
		fiberSched := c.Schedule.Remap(len(b.Fiber), func(li int) int { return li - nMw })
		protF, err := resilience.NewProtection(ctrlF, solF.Splits)
		if err != nil {
			return nil, fmt.Errorf("workload: fiber protection: %w", err)
		}
		planF, err := protF.Plan(fiberSched.Compress(p.Horizon), resilience.FRRReopt, ctrlF)
		if err != nil {
			return nil, fmt.Errorf("workload: fiber FRR plan: %w", err)
		}
		failF, updF = planF.Failures, planF.Updates
		rep.ReroutesFiber = planF.Reroutes
		if rep.AvailFiber, err = protF.Availability(fiberSched, resilience.FRRReopt); err != nil {
			return nil, fmt.Errorf("workload: fiber availability: %w", err)
		}
		protStop()
		protSp.SetItems(int64(rep.ReroutesCISP + rep.ReroutesFiber))
		protSp.End()
	}

	specs := []runSpec{
		{SubstrateCISP, netsim.FluidMode, b.Nodes, hybrid, fluidComms, solH.Splits, failH, updH},
		{SubstrateCISP, netsim.PacketMode, b.Nodes, hybrid, packetComms, solH.Splits, failH, updH},
		{SubstrateFiber, netsim.FluidMode, b.Nodes, b.Fiber, fluidComms, solF.Splits, failF, updF},
		{SubstrateFiber, netsim.PacketMode, b.Nodes, b.Fiber, packetComms, solF.Splits, failF, updF},
	}
	results := parallel.Map(len(specs), 1, func(i int) *netsim.ScenarioResult {
		s := specs[i]
		leg := s.substrate + "/" + s.mode.String()
		legSp := p.Span.Child("replay:" + leg)
		legStop := snk.StartTimer("cisp_workload_stage_seconds", "stage", "replay:"+leg)
		sc := &netsim.Scenario{
			Nodes: s.nodes, Links: s.links, Comms: s.comms,
			Scheme:      netsim.ShortestPath,
			Splits:      s.splits,
			Failures:    s.failures,
			Updates:     s.updates,
			Horizon:     p.Horizon,
			StartSpread: p.Window,
			Seed:        p.Seed,
		}
		res := sc.Run(s.mode)
		legStop()
		legSp.SetItems(res.EventsProcessed)
		legSp.End()
		return res
	})

	rttH, rttF := appRTTs(ctrlH, appOf), appRTTs(ctrlF, appOf)
	for i, res := range results {
		rtt := rttH
		if specs[i].substrate == SubstrateFiber {
			rtt = rttF
		}
		rep.Runs = append(rep.Runs, runStats(specs[i], res, appOf, c.Spec.Mix, rtt))
	}

	rep.QoE = p.qoe(c, rttH, rttF)
	if c.Spec.Kind == CDNPlacement {
		rep.SinkBills = sinkBills(c)
		for _, sb := range rep.SinkBills {
			rep.SinkCapex += sb.Capex
		}
	}
	return rep, nil
}

// appRTTs returns the demand-weighted mean propagation RTT per
// application over a substrate: each commodity's least-delay path at
// clear sky, its controller's first candidate, weighted by its offered
// demand. The candidates are the clear-sky pool, so a controller an
// FRRReopt plan has degraded gives the same RTTs.
func appRTTs(ctrl *te.Controller, appOf map[int]App) [NumApps]float64 {
	_, _, comms := ctrl.Topology()
	var sum, weight, out [NumApps]float64
	for i, paths := range ctrl.Candidates(1) {
		if len(paths) == 0 {
			continue // unreachable pairs are skipped
		}
		c := comms[i]
		a := appOf[c.Flow]
		sum[a] += float64(c.Demand) * 2 * paths[0].Delay
		weight[a] += float64(c.Demand)
	}
	for a := range out {
		if weight[a] > 0 {
			out[a] = sum[a] / weight[a] * 1000 // seconds → ms
		}
	}
	return out
}

// runStats reduces one simulation result to its per-application figures.
func runStats(spec runSpec, res *netsim.ScenarioResult, appOf map[int]App, mix AppMix, rtt [NumApps]float64) RunStats {
	rs := RunStats{
		Substrate: spec.substrate,
		Mode:      res.Mode.String(),
		Flows:     len(res.Flows),
		Completed: res.Completed,
		MLU:       res.MLU,
	}
	var fcts [NumApps][]float64
	var rateSum, first, last [NumApps]float64
	var rateN [NumApps]int
	for a := range first {
		first[a] = math.Inf(1)
	}
	for _, f := range res.Flows {
		a := appOf[f.Flow]
		rs.Apps[a].Flows++
		if f.Start < first[a] {
			first[a] = f.Start
		}
		if f.Completed {
			rs.Apps[a].Completed++
			fcts[a] = append(fcts[a], f.FCT)
			if end := f.Start + f.FCT; end > last[a] {
				last[a] = end
			}
		}
		if f.MeanRateBps > 0 {
			rateSum[a] += f.MeanRateBps
			rateN[a]++
		}
	}
	for a := App(0); a < NumApps; a++ {
		rs.Apps[a].App = a.String()
		rs.Apps[a].RTTMs = rtt[a]
		if len(fcts[a]) > 0 {
			rs.Apps[a].P50FCTMs = netsim.Percentile(fcts[a], 50) * 1000
			rs.Apps[a].P99FCTMs = netsim.Percentile(fcts[a], 99) * 1000
		}
		if rateN[a] > 0 {
			rs.Apps[a].MeanRateKbps = rateSum[a] / float64(rateN[a]) / 1000
		}
		if span := last[a] - first[a]; span > 0 && rs.Apps[a].Completed > 0 {
			bytes := float64(rs.Apps[a].Completed) * float64(mix[a].FlowBytes)
			rs.Apps[a].GoodputKbps = bytes * 8 / span / 1000
		}
	}
	return rs
}

// qoe translates the measured propagation RTTs into the paper's
// application outcomes: gaming frame times with inputs on the low-latency
// path (§7.1), page-load times with every round trip scaled by the RTT
// ratio (§7.2), and the per-GB value of the speedup (§8).
func (p Pipeline) qoe(c *Compiled, rttH, rttF [NumApps]float64) QoE {
	var q QoE
	gcfg := gaming.Config{Seed: p.Seed}
	q.GamingFrameMsFiber = gaming.SimulateConventional(rttF[Gaming], gcfg).MeanFrameMs
	q.GamingFrameMsCISP = gaming.SimulateAugmented(rttF[Gaming], rttH[Gaming], gcfg).MeanFrameMs

	scale := 1.0
	if rttF[Web] > 0 && rttH[Web] > 0 && rttH[Web] < rttF[Web] {
		scale = rttH[Web] / rttF[Web]
	}
	pages := webpage.Corpus(webpage.CorpusConfig{Seed: p.Seed, Pages: 20})
	var pltF, pltC float64
	for _, pg := range pages {
		pltF += webpage.Replay(pg, webpage.ReplayConfig{}).PLT
		pltC += webpage.Replay(pg, webpage.ReplayConfig{RTTScaleC2S: scale, RTTScaleS2C: scale}).PLT
	}
	q.WebPLTMsFiber = pltF / float64(len(pages)) * 1000
	q.WebPLTMsCISP = pltC / float64(len(pages)) * 1000

	if webGbps := units.BitsPerSecond(c.PerApp[Web].Total()).Gbps(); webGbps > 0 {
		q.SearchValuePerGB = econ.WebSearchValue(q.WebPLTMsFiber-q.WebPLTMsCISP, webGbps).Low
	}
	q.GamingValuePerGB = econ.PaperGaming().Low
	q.BeatsCost = econ.Exceeds(0.81,
		econ.ValuePerGB{Low: q.SearchValuePerGB, High: q.SearchValuePerGB},
		econ.ValuePerGB{Low: q.GamingValuePerGB, High: q.GamingValuePerGB})
	return q
}

// sinkBills prices each placed replica's backhaul: its egress demand
// carried from the nearest origin data center on the cheapest physical
// medium. Without origin DCs in the substrate there is nothing to
// backhaul from and the bill is empty.
func sinkBills(c *Compiled) []SinkBill {
	b := c.Backbone
	origins := cities.DataCenterIdx(b.Sites)
	if len(origins) == 0 {
		return nil
	}
	const newTowerCost = 150_000
	var bills []SinkBill
	for _, s := range c.Sinks {
		var egress float64
		for a := App(0); a < NumApps; a++ {
			for i := 0; i < c.PerApp[a].N(); i++ {
				egress += c.PerApp[a][i][s]
			}
		}
		egressGbps := units.BitsPerSecond(egress).Gbps()
		if egressGbps <= 0 {
			continue
		}
		best := units.Meters(-1)
		for _, o := range origins {
			if d := b.Sites[s].Loc.DistanceTo(b.Sites[o].Loc); best < 0 || d < best {
				best = d
			}
		}
		plan := media.Cheapest(float64(best), egressGbps, newTowerCost)[0]
		bills = append(bills, SinkBill{
			Site:       s,
			EgressGbps: egressGbps,
			BackhaulKm: best.Km(),
			Medium:     plan.Medium.Name,
			Capex:      plan.Capex,
		})
	}
	return bills
}
