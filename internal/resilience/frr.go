package resilience

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"cisp/internal/netsim"
	"cisp/internal/obs"
	"cisp/internal/te"
)

// Protection timing and pool size (§8).
const (
	// backupK bounds the backup search to the first backupK paths of the
	// Yen candidate pool the TE controller enumerates, within its stretch
	// of each commodity's shortest-path delay: fast reroute never leaves
	// the latency envelope the design promised.
	backupK = 8
	// detectDelay is the failure-detection plus local-repair activation
	// latency, seconds: backup paths install this long after a failure
	// event. Traffic on a failed primary is down for this window.
	detectDelay = 0.05
	// reoptDelay is how long the background full reoptimization takes
	// before its solution swaps in, seconds. Only FRRReopt uses it.
	reoptDelay = 1.0
)

// Mode selects a protection strategy.
type Mode int

// Protection modes, in increasing sophistication.
const (
	// NoProtection installs nothing: traffic on a failed path stalls until
	// the link is repaired.
	NoProtection Mode = iota
	// FRR activates precomputed link-disjoint backup paths detectDelay
	// (50 ms) after each failure event — pure table lookups, zero LP
	// solves on the event path — and reverts when links are repaired.
	FRR
	// FRRReopt is FRR plus the production control loop: a te.Controller
	// warm-reoptimizes the full split set in the background and its
	// solution swaps in reoptDelay (1 s) after each event.
	FRRReopt
)

func (m Mode) String() string {
	switch m {
	case NoProtection:
		return "none"
	case FRR:
		return "frr"
	case FRRReopt:
		return "reopt"
	}
	return "unknown"
}

// Backup is one commodity's precomputed fast-reroute path.
type Backup struct {
	Path   []int
	Delay  float64 // end-to-end propagation delay, seconds
	Shared int     // undirected links shared with the commodity's primary paths
}

// Protection precomputes everything fast reroute needs before any failure
// happens: per-commodity backup paths maximally link-disjoint from the
// installed primaries, the link index for down-set mapping, and each
// commodity's clear-sky shortest delay for stretch accounting.
type Protection struct {
	// Backups holds each protected commodity's backup path, keyed by flow
	// ID. Commodities whose only candidates are their primaries have no
	// entry (nothing disjoint to fall back on).
	Backups map[int]Backup

	links     []netsim.TopoLink   // the controller's clear-sky links
	flows     []*netsim.Commodity // the commodities with primaries, in flow-ID order
	primaries map[int][]netsim.SplitPath
	shortest  map[int]float64   // clear-sky shortest-path delay per flow
	index     *netsim.LinkIndex // directed link ID / 2 = index into links
}

// NewProtection builds the fast-reroute state over ctrl's clear-sky
// topology and commodities (te.Controller.Topology). primaries is the
// installed routing decision — a TE solution's Splits, or single paths
// wrapped as one-element splits; flows without an entry are unprotected,
// and an entry for a flow outside the commodities is an error. For every
// commodity it reads the controller's first backupK candidates
// (te.Controller.Candidates, at the controller's stretch) and picks the
// one sharing the fewest undirected links with the commodity's
// primaries, ties broken toward lower delay — maximal link disjointness
// subject to the latency cap.
func NewProtection(ctrl *te.Controller, primaries map[int][]netsim.SplitPath) (*Protection, error) {
	index, links, comms := ctrl.Topology()
	p := &Protection{
		Backups:   make(map[int]Backup),
		links:     links,
		primaries: primaries,
		shortest:  make(map[int]float64, len(comms)),
		index:     index,
	}
	commBy := make(map[int]*netsim.Commodity, len(comms))
	for i := range comms {
		commBy[comms[i].Flow] = &comms[i]
	}
	for _, flow := range slices.Sorted(maps.Keys(primaries)) {
		if commBy[flow] == nil {
			return nil, fmt.Errorf("resilience: primary for flow %d, which is not a commodity", flow)
		}
		p.flows = append(p.flows, commBy[flow])
	}
	cands := ctrl.Candidates(backupK)
	for i, c := range comms {
		pool := cands[i]
		if len(pool) == 0 {
			continue
		}
		p.shortest[c.Flow] = pool[0].Delay
		prim := primaries[c.Flow]
		if len(prim) == 0 {
			continue
		}
		primLinks := map[int]bool{}
		var primPaths [][]int
		for _, sp := range prim {
			if sp.Frac <= 0 {
				continue
			}
			lis, err := p.pathLinks(sp.Path)
			if err != nil {
				return nil, fmt.Errorf("resilience: commodity %d primary: %w", c.Flow, err)
			}
			for _, li := range lis {
				primLinks[li] = true
			}
			primPaths = append(primPaths, sp.Path)
		}
		best, bestShared := -1, 0
		for pi, cand := range pool {
			if slices.ContainsFunc(primPaths, func(q []int) bool { return slices.Equal(q, cand.Nodes) }) {
				continue // a primary is no backup for itself
			}
			shared := 0
			lis, err := p.pathLinks(cand.Nodes)
			if err != nil {
				return nil, fmt.Errorf("resilience: commodity %d candidate: %w", c.Flow, err)
			}
			for _, li := range lis {
				if primLinks[li] {
					shared++
				}
			}
			// The pool is delay-sorted, so strict improvement keeps the
			// lowest-delay path among equally disjoint candidates.
			if best < 0 || shared < bestShared {
				best, bestShared = pi, shared
			}
		}
		if best < 0 {
			continue
		}
		p.Backups[c.Flow] = Backup{
			Path:   pool[best].Nodes,
			Delay:  pool[best].Delay,
			Shared: bestShared,
		}
	}
	return p, nil
}

// link returns the position in the topology's link list of the link
// joining a and b, in either direction.
func (p *Protection) link(a, b int) (int, bool) {
	id, ok := p.index.Lookup(a, b)
	return int(id / 2), ok
}

// covers refuses a schedule that does not cover exactly the topology's
// links, or whose horizon or an outage's start or end is NaN or
// infinite: decisions could never leave a batch at a NaN time.
func (p *Protection) covers(sched *Schedule) error {
	if sched.NumLinks != len(p.links) {
		return fmt.Errorf("resilience: schedule covers %d links, topology has %d", sched.NumLinks, len(p.links))
	}
	if !finite(sched.Horizon) {
		return fmt.Errorf("resilience: schedule horizon %v", sched.Horizon)
	}
	for _, o := range sched.Outages {
		if !finite(o.Start) || !finite(o.End) {
			return fmt.Errorf("resilience: outage of link %d from %v to %v", o.Link, o.Start, o.End)
		}
	}
	return nil
}

// pathLinks maps a node path to topology link indices.
func (p *Protection) pathLinks(path []int) ([]int, error) {
	out := make([]int, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		li, ok := p.link(path[i], path[i+1])
		if !ok {
			return nil, fmt.Errorf("hop %d-%d not in topology", path[i], path[i+1])
		}
		out = append(out, li)
	}
	return out, nil
}

// pathUp reports whether every link of the path is up.
func (p *Protection) pathUp(path []int, down []bool) bool {
	for i := 0; i+1 < len(path); i++ {
		if li, ok := p.link(path[i], path[i+1]); ok && down[li] {
			return false
		}
	}
	return true
}

// patchOne applies fast reroute to one commodity's split in base under a
// down-set, falling back to its primaries where base dropped it as
// unroutable (the last physical paths the network held): fractions on
// failed paths move to the backup when it exists and is up, merging with a
// surviving path if the backup coincides with one. Fractions with nowhere
// to go stay on their dead path (they stall; availability accounting
// charges them). Returns the split itself when nothing crosses a down link.
func (p *Protection) patchOne(flow int, base map[int][]netsim.SplitPath, down []bool) []netsim.SplitPath {
	bs := base[flow]
	if len(bs) == 0 {
		bs = p.primaries[flow]
	}
	deadFrac := 0.0
	for _, sp := range bs {
		if !p.pathUp(sp.Path, down) {
			deadFrac += sp.Frac
		}
	}
	if deadFrac == 0 {
		return bs
	}
	bk, ok := p.Backups[flow]
	if !ok || !p.pathUp(bk.Path, down) {
		return bs // nothing to rescue with
	}
	out := make([]netsim.SplitPath, 0, len(bs)+1)
	merged := false
	for _, sp := range bs {
		if !p.pathUp(sp.Path, down) {
			continue
		}
		if slices.Equal(sp.Path, bk.Path) {
			sp.Frac += deadFrac
			merged = true
		}
		out = append(out, sp)
	}
	if !merged {
		out = append(out, netsim.SplitPath{Path: bk.Path, Frac: deadFrac})
	}
	return out
}

// Patched returns the split set fast reroute holds in force under a
// down-set, starting from the installed primaries — the planning-side view
// for MLU evaluation (netsim.LinkIndex.SplitLoad) without compiling a full
// Plan.
func (p *Protection) Patched(down []bool) map[int][]netsim.SplitPath {
	return p.PatchedFrom(p.primaries, down)
}

// PatchedFrom applies fast reroute against an arbitrary installed base —
// the latest reoptimized solution of a live control plane rather than the
// clear-sky primaries. Flows the base dropped as unroutable fall back to
// their primaries, matching the Plan compiler's convention. The down-set
// indexes the clear-sky link list the protection was built over. Pure
// table lookups: no LP solves.
func (p *Protection) PatchedFrom(base map[int][]netsim.SplitPath, down []bool) map[int][]netsim.SplitPath {
	out := make(map[int][]netsim.SplitPath, len(p.primaries))
	for flow := range p.primaries {
		out[flow] = p.patchOne(flow, base, down)
	}
	return out
}

// decision is one timed response to an event batch: the fast-reroute
// patch detectDelay after it or, under FRRReopt, the background
// reoptimization of the batch's link state reoptDelay after it.
type decision struct {
	t, batch float64
	reopt    bool
}

// decisions turns time-sorted events into the ordered decision list Plan
// and Availability both walk. Same-instant decisions keep batch order,
// each batch's patch before its reopt.
func decisions(events []netsim.FailureEvent, mode Mode) []decision {
	if mode == NoProtection {
		return nil
	}
	var ds []decision
	for i := 0; i < len(events); {
		t := events[i].Time
		for ; i < len(events) && events[i].Time == t; i++ {
		}
		ds = append(ds, decision{t: t + detectDelay})
		if mode == FRRReopt {
			ds = append(ds, decision{t: t + reoptDelay, batch: t, reopt: true})
		}
	}
	sort.SliceStable(ds, func(a, b int) bool { return ds[a].t < ds[b].t })
	return ds
}

// repatch is the one fast-reroute step of Plan and Availability. It
// re-patches every protected flow from base under a down-set, in flow
// order, and calls changed with each flow whose patched split differs
// from the one in force. installed holds the in-force splits' keys by
// position in p.flows (primaryKeys to start) and is kept current.
func (p *Protection) repatch(installed []string, base map[int][]netsim.SplitPath, down []bool,
	changed func(flow int, sps []netsim.SplitPath)) {
	for i, c := range p.flows {
		sps := p.patchOne(c.Flow, base, down)
		if key := splitsKey(sps); key != installed[i] {
			installed[i] = key
			changed(c.Flow, sps)
		}
	}
}

// primaryKeys returns each protected flow's primary splitsKey, the
// in-force state before any decision.
func (p *Protection) primaryKeys() []string {
	keys := make([]string, len(p.flows))
	for i, c := range p.flows {
		keys[i] = splitsKey(p.primaries[c.Flow])
	}
	return keys
}

// Plan is a compiled failure response, ready to install on a
// netsim.Scenario: the schedule's link events plus the timed path updates
// the protection mode issues in response.
type Plan struct {
	Mode     Mode
	Failures []netsim.FailureEvent
	Updates  []netsim.PathUpdate

	// Reroutes counts per-commodity routing changes the plan issues.
	Reroutes int

	// LPSolves is the number of simplex solves the FRRReopt controller ran
	// while compiling the event responses, read from its own
	// te.Controller.LPSolves, so concurrent TE work elsewhere never leaks
	// in. FRR and NoProtection plans drive no controller and report zero —
	// backup activation is a table lookup; FRRReopt spends its solves in
	// the background controller, never on the detectDelay activation path.
	LPSolves int64
}

// Plan compiles the protection mode's response to a failure schedule. For
// FRRReopt, ctrl must be a controller built over the same (nodes, links,
// comms) at clear sky; the compilation drives it through the schedule's
// capacity states (warm reoptimization) and leaves it at the schedule's
// final state. ctrl is ignored for the other modes.
func (p *Protection) Plan(sched *Schedule, mode Mode, ctrl *te.Controller) (*Plan, error) {
	if err := p.covers(sched); err != nil {
		return nil, err
	}
	plan := &Plan{Mode: mode, Failures: sched.Events()}
	if mode == NoProtection {
		return plan, nil
	}
	if mode == FRRReopt && ctrl == nil {
		return nil, fmt.Errorf("resilience: FRRReopt plan needs a te.Controller")
	}
	var solvesBefore int64
	if mode == FRRReopt {
		solvesBefore = ctrl.LPSolves()
	}

	// Walk the decisions chronologically. A reopt swaps in the
	// controller's solution for its batch's link state (the controller
	// reoptimizes batch by batch); then every instant re-patches from the
	// latest base, which starts as the primaries, and emits an update for
	// each flow whose in-force split changed.
	base, installed := p.primaries, p.primaryKeys()
	var graded []netsim.TopoLink
	batchSweep, decSweep := newDownSweep(sched), newDownSweep(sched)
	decs := decisions(plan.Failures, mode)
	for di := 0; di < len(decs); {
		t := decs[di].t
		for ; di < len(decs) && decs[di].t == t; di++ {
			if d := decs[di]; d.reopt {
				graded = netsim.Graded(graded, p.links, nil, batchSweep.advance(d.batch))
				if _, err := ctrl.UpdateCapacities(graded); err != nil {
					return nil, fmt.Errorf("resilience: reoptimizing at t=%.3f: %w", d.batch, err)
				}
				base = ctrl.Solution().Splits
			}
		}
		p.repatch(installed, base, decSweep.advance(t), func(flow int, sps []netsim.SplitPath) {
			plan.Updates = append(plan.Updates, netsim.PathUpdate{Time: t, Flow: flow, Paths: sps})
		})
	}
	plan.Reroutes = len(plan.Updates)
	if mode == FRRReopt {
		plan.LPSolves = ctrl.LPSolves() - solvesBefore
	}
	snk := obs.Active()
	snk.Counter("cisp_resilience_frr_activations_total", "mode", mode.String()).Add(int64(plan.Reroutes))
	// The plan's solver work, as a scrapeable gauge: zero for pure FRR,
	// the background controller's solves for FRRReopt.
	snk.Gauge("cisp_resilience_plan_lp_solves", "mode", mode.String()).Set(float64(plan.LPSolves))
	return plan, nil
}

// splitsKey canonicalizes a split set for change detection: path order is
// normalized and fractions rounded well below any meaningful difference.
func splitsKey(sps []netsim.SplitPath) string {
	keys := make([]string, len(sps))
	for i, sp := range sps {
		keys[i] = fmt.Sprintf("%v=%.9f", sp.Path, sp.Frac)
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}
