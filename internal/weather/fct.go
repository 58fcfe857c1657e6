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

// MeasureFCT replays the degraded-capacity hybrid network as a packet-mode
// netsim.Scenario under each routing scheme and measures TCP
// flow-completion times: one flow of cfg.FlowBytes per commodity (leave
// Count and FlowBytes zero), all starting at t = 0 and measured to
// cfg.SimTime, microwave link rates
// scaled by their adaptive-modulation capacity fraction (failed links are
// omitted entirely), fiber links carried over unchanged; every link keeps
// its own QueueCap. conds[i] grades mwLinks[i]; a nil conds leaves every
// link at clear-sky rate. The replay is deterministic — no randomness
// enters after routing.
func MeasureFCT(nNodes int, mwLinks []netsim.TopoLink, conds []LinkCondition,
	fiberLinks []netsim.TopoLink, comms []netsim.Commodity,
	schemes []netsim.Scheme, cfg FCTConfig) []FCTResult {
	cfg.setDefaults()

	// Grade the microwave layer once; the per-scheme runs share it.
	links := append(netsim.Live(netsim.Graded(nil, mwLinks, Fractions(conds), nil)), fiberLinks...)

	var out []FCTResult
	for _, scheme := range schemes {
		sc := &netsim.Scenario{
			Nodes: nNodes, Links: links, Comms: comms, Scheme: scheme,
			FlowBytes: cfg.FlowBytes, Horizon: cfg.SimTime,
		}
		r := sc.Run(netsim.PacketMode)
		// Unroutable commodities still count against Flows, so the
		// shortfall is visible in Completed/Flows.
		res := FCTResult{Scheme: scheme.String(), Completed: r.Completed, Flows: len(comms)}
		if fcts := r.FCTs(); len(fcts) > 0 {
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
