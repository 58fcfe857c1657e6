package weather

import (
	"cisp/internal/netsim"
)

// FCTConfig tunes the packet-level validation of a degraded interval.
type FCTConfig struct {
	FlowBytes int     // payload per TCP flow (default 256 KB)
	SimTime   float64 // simulated seconds before the drain (default 5)
}

func (c *FCTConfig) setDefaults() {
	if c.FlowBytes == 0 {
		c.FlowBytes = 256 << 10
	}
	if c.SimTime == 0 {
		c.SimTime = 5
	}
}

// FCTResult is one routing scheme's flow-completion-time measurement over
// a degraded interval.
type FCTResult struct {
	Scheme    string
	MeanMs    float64 // mean FCT over completed flows, ms
	P99Ms     float64 // 99th-percentile FCT, ms
	Completed int     // flows finished before the drain deadline
	Flows     int     // flows offered (including ones the scheme failed to route)
}

// MeasureFCT instantiates the degraded-capacity hybrid network in netsim
// and measures TCP flow-completion times under each routing scheme: one
// TCP flow per commodity, microwave link rates scaled by their
// adaptive-modulation capacity fraction (failed links are omitted
// entirely), fiber links carried over unchanged; every link keeps its own
// QueueCap. conds[i] grades mwLinks[i]; a nil conds leaves every link at
// clear-sky rate. The simulation is deterministic — no randomness enters
// after routing.
func MeasureFCT(nNodes int, mwLinks []netsim.TopoLink, conds []LinkCondition,
	fiberLinks []netsim.TopoLink, comms []netsim.Commodity,
	schemes []netsim.Scheme, cfg FCTConfig) []FCTResult {
	cfg.setDefaults()

	// Grade the microwave layer once; the per-scheme runs share it. Links
	// graded to zero rate (failed or deep-faded) are omitted entirely —
	// packet simulation has no use for a 0 bps link.
	var graded []netsim.TopoLink
	for _, l := range GradedRates(mwLinks, conds) {
		if l.RateBps <= 0 {
			continue
		}
		graded = append(graded, l)
	}

	var out []FCTResult
	for _, scheme := range schemes {
		var sim netsim.Simulator
		nw := netsim.NewNetwork(&sim, nNodes)
		links := append(append([]netsim.TopoLink(nil), graded...), fiberLinks...)
		netsim.BuildTopology(nw, links)
		paths := netsim.InstallRoutes(nw, links, comms, scheme)

		var fcts []float64
		for _, c := range comms {
			path := paths[c.Flow]
			if path == nil {
				// Unroutable on the degraded topology: counts against
				// Flows so the shortfall is visible in Completed/Flows.
				continue
			}
			// TCP needs the reverse ACK path too; links are duplex, so the
			// reversed data path is always available.
			rev := make([]int, len(path))
			for i, v := range path {
				rev[len(path)-1-i] = v
			}
			nw.SetFlowPath(c.Flow, rev)
			conn := &netsim.TCPConn{
				Net: nw, Flow: c.Flow, Src: c.Src, Dst: c.Dst,
				FlowSize: cfg.FlowBytes,
				Done:     func(fct float64) { fcts = append(fcts, fct) },
			}
			conn.Start()
		}
		sim.Run(cfg.SimTime)
		res := FCTResult{
			Scheme:    scheme.String(),
			Completed: len(fcts),
			Flows:     len(comms),
		}
		if len(fcts) > 0 {
			sum := 0.0
			for _, f := range fcts {
				sum += f
			}
			res.MeanMs = sum / float64(len(fcts)) * 1000
			res.P99Ms = netsim.Percentile(fcts, 99) * 1000
		}
		out = append(out, res)
	}
	return out
}
