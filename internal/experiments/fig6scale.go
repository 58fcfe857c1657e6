package experiments

import (
	"time"

	"cisp/internal/netsim"
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

// maxPacketFlows bounds the packet engine in Fig6Scale, FigTE and
// FigAvail: per-packet simulation of a designed backbone is practical to
// ~10³ flows; beyond that the fluid engine is the right tool (that
// asymmetry is the point of Fig6Scale).
const maxPacketFlows = 1500

// scaleHorizon is how long Fig6Scale runs. Every flow starts at t = 0, so
// commodity demands spread each pair's bytes over the whole run.
const scaleHorizon = 300.0

// Fig6Scale extends the Fig 6 line of §5/§6.4 from a 12-node dumbbell to a
// full designed backbone: the 4:3:3 City-City : City-DC : DC-DC traffic
// mix is apportioned into totalFlows concurrent TCP transfers
// (DemandCommodities) and replayed over the designed hybrid backbone
// (DesignedTETopology) on the selected engine. Packet mode gives microscopic fidelity
// at ~10³ flows; fluid mode replays the same scenario at 10⁵-10⁶ flows,
// which is where the ROADMAP's "millions of users" traffic lives.
func Fig6Scale(opt Options, mode netsim.Mode, totalFlows int) *Fig6ScaleResult {
	w := opt.out()
	if totalFlows <= 0 {
		totalFlows = 20_000
	}
	clamped := false
	if mode == netsim.PacketMode && totalFlows > maxPacketFlows {
		totalFlows = maxPacketFlows
		clamped = true
	}

	// Sites, mix and design exactly as Fig 11 (the 4:3:3 design point).
	// Shortest-path routing has no use for the midpoint detours: each
	// parallels a faster microwave link.
	tt, err := DesignedTETopology(opt)
	if err != nil {
		fprintf(w, "fig6scale: %v\n", err)
		return nil
	}
	sc := &netsim.Scenario{
		Nodes: tt.Nodes, Links: tt.Links(),
		Comms:     DemandCommodities(tt.DesignTM, totalFlows, teFlowBytes, scaleHorizon),
		Scheme:    netsim.ShortestPath,
		FlowBytes: teFlowBytes,
		Horizon:   scaleHorizon,
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
		fprintf(w, "  (packet mode clamped to %d flows; use -mode=fluid for more)\n", maxPacketFlows)
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
