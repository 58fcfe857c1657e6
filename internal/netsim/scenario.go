package netsim

import (
	"fmt"
	"math/rand"
	"sort"

	"cisp/internal/obs"
	"cisp/internal/parallel"
	"cisp/internal/traffic"
	"cisp/internal/units"
)

// Mode selects the simulation engine a Scenario runs on.
type Mode int

// Engine modes.
const (
	// PacketMode is the discrete-event per-packet engine: full queuing,
	// loss and TCP dynamics, practical up to ~10³-10⁴ flows.
	PacketMode Mode = iota
	// FluidMode is the flow-level max-min engine: no queuing transients,
	// practical up to 10⁵-10⁶ concurrent flows.
	FluidMode
)

func (m Mode) String() string {
	switch m {
	case PacketMode:
		return "packet"
	case FluidMode:
		return "fluid"
	}
	return "unknown"
}

// ParseMode parses "packet" or "fluid".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "packet":
		return PacketMode, nil
	case "fluid":
		return FluidMode, nil
	}
	return 0, fmt.Errorf("netsim: unknown mode %q (want packet or fluid)", s)
}

// Scenario is a declarative bulk-simulation input shared by both engines:
// a topology, routed commodities (each carrying Count concurrent flows of
// FlowBytes payload), and a horizon. The same Scenario can be run in
// packet mode for microscopic fidelity and in fluid mode for scale; both
// route with ComputeRoutes, so per-flow paths are identical across modes
// and per-flow mean rates are directly comparable.
type Scenario struct {
	Nodes  int
	Links  []TopoLink
	Comms  []Commodity
	Scheme Scheme

	// Splits, when non-nil, installs fractional multipath routing for the
	// listed commodities (keyed by Commodity.Flow), as computed by a
	// traffic-engineering control plane (internal/te): each commodity's
	// Count flows are apportioned across its weighted paths by
	// largest-remainder rounding on the fractions and then shuffled with a
	// Seed-deterministic draw, identically in both engine modes — so the
	// per-path flow populations, and therefore the offered load, are the
	// same in packet and fluid runs. Commodities without an entry fall back
	// to Scheme routing.
	Splits map[int][]SplitPath

	// Failures is a timed link outage schedule applied during the run, in
	// both engine modes: at each event's Time, the duplex link
	// Links[Event.Link] goes down (queued and in-flight packets are lost,
	// fluid flows crossing it re-rate to zero) or comes back up. Events at
	// the same instant apply before any Updates at that instant.
	Failures []FailureEvent

	// Updates re-route commodities mid-run, identically in both engine
	// modes: at each update's Time, the commodity's clone flows are
	// re-apportioned across the update's weighted paths with the same
	// largest-remainder + seeded-shuffle draw used at setup (the draw
	// depends only on Seed and the update's index, so packet and fluid runs
	// stay flow-for-flow comparable). In packet mode in-flight packets
	// finish (or die) on the old path and retransmissions take the new one;
	// in fluid mode remaining bytes carry over. This is the installation
	// hook for fast-reroute and reoptimization plans
	// (internal/resilience).
	Updates []PathUpdate

	FlowBytes   int     // payload per flow (default 100 KB)
	Horizon     float64 // simulated seconds (default 30)
	StartSpread float64 // flow starts drawn uniformly from [0, StartSpread] (0 = all at t=0)
	Seed        int64   // start-time randomness (packet and fluid draw identically)
}

// FailureEvent is one timed topology transition of a Scenario run: the
// duplex link at index Link in Scenario.Links fails (Up false) or is
// restored (Up true) at Time seconds.
type FailureEvent struct {
	Time float64
	Link int
	Up   bool
}

// PathUpdate is one timed re-routing command: at Time, the commodity with
// flow ID Flow has its clone flows re-apportioned across Paths. An empty
// Paths is invalid; to model an unprotected commodity simply omit updates
// for it and let its flows stall on the dead path.
type PathUpdate struct {
	Time  float64
	Flow  int
	Paths []SplitPath
}

// SplitPath is one weighted path of a commodity's fractional multipath
// split.
type SplitPath struct {
	Path []int   // node path from the commodity's Src to its Dst
	Frac float64 // fraction of the commodity's flows riding this path
}

// LinkLoad is one directed link's time-average utilization over a run.
type LinkLoad struct {
	From, To    int
	Utilization units.Utilization
}

// FlowResult is one flow's outcome.
type FlowResult struct {
	Flow        int     // commodity flow ID this flow ran on
	Start       float64 // start time, seconds
	FCT         float64 // flow completion time, seconds (0 if incomplete)
	Completed   bool
	MeanRateBps float64 // payload*8/FCT when completed, served*8/elapsed otherwise
}

// ScenarioResult is the outcome of one Scenario run.
type ScenarioResult struct {
	Mode      Mode
	Flows     []FlowResult
	Completed int
	End       float64 // simulation end time

	// LinkLoads is every directed link's time-average utilization over
	// [0, End], sorted by (From, To); MLU is their maximum. In packet mode
	// utilization is transmission busy time (ACK traffic included); in
	// fluid mode it is served bytes over capacity × elapsed.
	LinkLoads []LinkLoad
	MLU       units.Utilization

	// EventsProcessed counts simulator events executed during the run: all
	// discrete events in packet mode, live arrival/departure events in
	// fluid mode. Benchmarks report wall time / EventsProcessed as
	// ns/event.
	EventsProcessed int64
}

// FCTs returns the completion times of all completed flows, in flow order.
func (r *ScenarioResult) FCTs() []float64 {
	var out []float64
	for _, f := range r.Flows {
		if f.Completed {
			out = append(out, f.FCT)
		}
	}
	return out
}

// MeanRateByCommodity averages per-flow mean rates per commodity flow ID.
func (r *ScenarioResult) MeanRateByCommodity() map[int]float64 {
	sum := map[int]float64{}
	cnt := map[int]int{}
	for _, f := range r.Flows {
		sum[f.Flow] += f.MeanRateBps
		cnt[f.Flow]++
	}
	out := make(map[int]float64, len(sum))
	for k, s := range sum {
		out[k] = s / float64(cnt[k])
	}
	return out
}

func (sc *Scenario) defaults() (flowBytes int, horizon float64) {
	flowBytes = sc.FlowBytes
	if flowBytes == 0 {
		flowBytes = 100 << 10
	}
	horizon = sc.Horizon
	if horizon == 0 {
		horizon = 30
	}
	return
}

// starts draws the per-flow start times; identical in both modes so the
// engines see the same offered load. Flows are ordered commodity-major.
func (sc *Scenario) starts(total int) []float64 {
	out := make([]float64, total)
	if sc.StartSpread <= 0 {
		return out
	}
	rng := rand.New(rand.NewSource(sc.Seed + 1))
	for i := range out {
		out[i] = rng.Float64() * sc.StartSpread
	}
	return out
}

// commodityRouting is one commodity's resolved forwarding choice: its
// candidate paths and, for fractional splits, each clone flow's path index
// (nil assign = every flow on paths[0]). nil paths marks an unroutable
// commodity.
type commodityRouting struct {
	paths  [][]int
	assign []int
}

// routeCommodities resolves per-commodity forwarding for a run: commodities
// with a Splits entry get their weighted paths and a deterministic per-flow
// path assignment drawn from Seed; the rest are routed by Scheme via
// ComputeRoutes. Both engines call this with identical inputs, so per-path
// flow populations are identical across modes.
func (sc *Scenario) routeCommodities() []commodityRouting {
	var routed []Commodity
	for _, c := range sc.Comms {
		if len(sc.Splits[c.Flow]) == 0 {
			routed = append(routed, c)
		}
	}
	var single map[int][]int
	if len(routed) > 0 {
		single = ComputeRoutes(sc.Nodes, sc.Links, routed, sc.Scheme)
	}
	rng := rand.New(rand.NewSource(sc.Seed + 2))
	out := make([]commodityRouting, len(sc.Comms))
	for i, c := range sc.Comms {
		sp := sc.Splits[c.Flow]
		if len(sp) == 0 {
			if p := single[c.Flow]; p != nil {
				out[i].paths = [][]int{p}
			}
			continue
		}
		paths, fracs := splitPaths(c, sp)
		if len(paths) == 0 {
			continue
		}
		out[i].paths = paths
		if len(paths) > 1 {
			out[i].assign = splitAssignments(max(c.Count, 1), fracs, rng)
		}
	}
	return out
}

// splitPaths validates a commodity's weighted paths and extracts the
// positive-fraction ones. Panics on a path that does not connect the
// commodity's endpoints — a planning-layer bug, not a runtime condition.
func splitPaths(c Commodity, sp []SplitPath) (paths [][]int, fracs []float64) {
	for _, s := range sp {
		if s.Frac <= 0 {
			continue
		}
		if len(s.Path) < 2 || s.Path[0] != c.Src || s.Path[len(s.Path)-1] != c.Dst {
			panic(fmt.Sprintf("netsim: split path %v does not connect commodity %d (%d->%d)",
				s.Path, c.Flow, c.Src, c.Dst))
		}
		paths = append(paths, s.Path)
		fracs = append(fracs, s.Frac)
	}
	return paths, fracs
}

// updateAssign draws the per-clone path assignment for the ui-th update.
// The source depends only on (Seed, ui), never on engine state, so packet
// and fluid runs re-apportion clone-for-clone identically.
func (sc *Scenario) updateAssign(ui, nClones int, fracs []float64) []int {
	if len(fracs) <= 1 {
		return nil
	}
	rng := rand.New(rand.NewSource(sc.Seed + 1_000_003*int64(ui+1)))
	return splitAssignments(nClones, fracs, rng)
}

// checkFailures bounds-checks the failure schedule against the link list.
func (sc *Scenario) checkFailures() {
	for _, ev := range sc.Failures {
		if ev.Link < 0 || ev.Link >= len(sc.Links) {
			panic(fmt.Sprintf("netsim: failure event link %d outside [0,%d)", ev.Link, len(sc.Links)))
		}
	}
}

// splitAssignments apportions n flows across paths in proportion to fracs
// (traffic.Apportion, so per-path counts are exact) and shuffles the
// assignment vector so clone order carries no path bias. Deterministic in
// the rng state.
func splitAssignments(n int, fracs []float64, rng *rand.Rand) []int {
	out := make([]int, 0, n)
	for pi, c := range traffic.Apportion(n, fracs) {
		for k := 0; k < c; k++ {
			out = append(out, pi)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// finishLinkLoads sorts the per-link loads by (From, To) and records the
// maximum as the run's MLU.
func (r *ScenarioResult) finishLinkLoads(loads []LinkLoad) {
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].From != loads[j].From {
			return loads[i].From < loads[j].From
		}
		return loads[i].To < loads[j].To
	})
	r.LinkLoads = loads
	for _, l := range loads {
		if l.Utilization > r.MLU {
			r.MLU = l.Utilization
		}
	}
}

// Run executes the scenario on the selected engine.
func (sc *Scenario) Run(mode Mode) *ScenarioResult {
	if mode == FluidMode {
		return sc.runFluid()
	}
	return sc.runPacket()
}

// RunMany fans independent scenario runs out over the shared worker pool
// (internal/parallel), preserving input order. Each run owns its simulator,
// so results are bit-identical to sequential execution at any pool width.
// With an active obs sink, each run gets a span (named by its index, so
// concurrent siblings stay distinct) and a panic inside a run is re-raised
// carrying the run's index, seed and mode — a bulk sweep's crash report
// names the scenario that died instead of an anonymous worker goroutine.
func RunMany(scs []*Scenario, mode Mode) []*ScenarioResult {
	snk := obs.Active()
	return parallel.Map(len(scs), 1, func(i int) *ScenarioResult {
		defer func() {
			if r := recover(); r != nil {
				panic(fmt.Sprintf("netsim: scenario %d of %d (seed %d, mode %s) panicked: %v",
					i, len(scs), scs[i].Seed, mode, r))
			}
		}()
		sp := snk.Span(fmt.Sprintf("netsim:run[%d]:%s", i, mode))
		res := scs[i].Run(mode)
		sp.SetItems(res.EventsProcessed)
		sp.End()
		return res
	})
}

func (sc *Scenario) runPacket() *ScenarioResult {
	flowBytes, horizon := sc.defaults()
	var sim Simulator
	nw := NewNetwork(&sim, sc.Nodes)
	BuildTopology(nw, sc.Links)
	routings := sc.routeCommodities()

	// Flow IDs: each commodity keeps its own ID for its first flow; clones
	// get fresh IDs past the maximum so delivery demux stays per-flow.
	nextID := 0
	for _, c := range sc.Comms {
		if c.Flow >= nextID {
			nextID = c.Flow + 1
		}
	}
	total := 0
	for ci, c := range sc.Comms {
		if routings[ci].paths != nil {
			total += max(c.Count, 1)
		}
	}
	startAt := sc.starts(total)

	res := &ScenarioResult{Mode: PacketMode}
	type live struct {
		conn *TCPConn
		idx  int // index into res.Flows
	}
	var conns []live
	cloneIDs := make(map[int][]int) // commodity flow ID -> clone netsim flow IDs
	commOf := make(map[int]Commodity, len(sc.Comms))
	fi := 0
	for ci, c := range sc.Comms {
		r := &routings[ci]
		if r.paths == nil {
			continue
		}
		commOf[c.Flow] = c
		fb := flowBytes
		if c.FlowBytes > 0 {
			fb = c.FlowBytes
		}
		revs := make([][]int, len(r.paths))
		for pi, path := range r.paths {
			revs[pi] = reversePath(path)
		}
		for k := 0; k < max(c.Count, 1); k++ {
			id := c.Flow
			if k > 0 {
				id = nextID
				nextID++
			}
			pi := 0
			if r.assign != nil {
				pi = r.assign[k]
			}
			nw.SetFlowPath(id, r.paths[pi])
			nw.SetFlowPath(id, revs[pi])
			cloneIDs[c.Flow] = append(cloneIDs[c.Flow], id)
			idx := len(res.Flows)
			res.Flows = append(res.Flows, FlowResult{Flow: c.Flow, Start: startAt[fi]})
			conn := &TCPConn{
				Net: nw, Flow: id, Src: c.Src, Dst: c.Dst,
				FlowSize: fb,
			}
			conn.Done = func(fct float64) {
				res.Flows[idx].FCT = fct
				res.Flows[idx].Completed = true
				res.Flows[idx].MeanRateBps = float64(fb) * 8 / fct
				res.Completed++
			}
			conns = append(conns, live{conn: conn, idx: idx})
			sim.Schedule(startAt[fi], conn.Start)
			fi++
		}
	}

	// Failure schedule: flip both directions of the duplex link. Scheduled
	// before updates, so same-instant failures apply first (matching the
	// fluid engine's action ordering).
	sc.checkFailures()
	for _, ev := range sc.Failures {
		down := !ev.Up
		ab := nw.Link(sc.Links[ev.Link].A, sc.Links[ev.Link].B)
		ba := nw.Link(sc.Links[ev.Link].B, sc.Links[ev.Link].A)
		sim.Schedule(ev.Time, func() {
			ab.SetDown(down)
			ba.SetDown(down)
		})
	}
	// Path updates: re-install forwarding (and the reverse ACK path) for
	// every clone of the commodity. In-flight packets keep their resolved
	// hops; retransmissions pick up the new route.
	for ui, u := range sc.Updates {
		ids := cloneIDs[u.Flow]
		if len(ids) == 0 {
			continue // commodity unroutable at setup: no clones to move
		}
		paths, fracs := splitPaths(commOf[u.Flow], u.Paths)
		if len(paths) == 0 {
			panic(fmt.Sprintf("netsim: path update for commodity %d has no usable path", u.Flow))
		}
		revs := make([][]int, len(paths))
		for pi, path := range paths {
			revs[pi] = reversePath(path)
		}
		assign := sc.updateAssign(ui, len(ids), fracs)
		sim.Schedule(u.Time, func() {
			for k, fid := range ids {
				pi := 0
				if assign != nil {
					pi = assign[k]
				}
				nw.SetFlowPath(fid, paths[pi])
				nw.SetFlowPath(fid, revs[pi])
			}
		})
	}
	sim.Run(horizon)
	res.End = sim.Now()
	res.EventsProcessed = sim.Processed()
	for _, l := range conns {
		fr := &res.Flows[l.idx]
		if fr.Completed {
			continue
		}
		if el := res.End - fr.Start; el > 0 {
			fr.MeanRateBps = float64(l.conn.Acked()) * 8 / el
		}
	}
	loads := make([]LinkLoad, 0, len(nw.Links()))
	drops := int64(0)
	for _, l := range nw.Links() {
		//lint:allow maporder -- finishLinkLoads sorts loads by (From, To) before recording; drops is an order-free integer sum
		loads = append(loads, LinkLoad{From: l.From, To: l.To, Utilization: units.Utilization(l.Utilization(res.End))})
		drops += l.Drops
	}
	res.finishLinkLoads(loads)
	publishObs(res, sim.MaxPending(), drops)
	return res
}

// reversePath returns the node path reversed (the ACK direction).
func reversePath(path []int) []int {
	rev := make([]int, len(path))
	for i, v := range path {
		rev[len(path)-1-i] = v
	}
	return rev
}

// PathKey canonicalizes a node path as a comparable string — the shared
// key for route deduplication here and split change-detection in the
// resilience layer.
func PathKey(path []int) string {
	var b []byte
	for _, v := range path {
		b = fmt.Appendf(b, "%d,", v)
	}
	return string(b)
}

func (sc *Scenario) runFluid() *ScenarioResult {
	flowBytes, horizon := sc.defaults()
	f := NewFluid(sc.Nodes, sc.Links)
	routings := sc.routeCommodities()

	total := 0
	for ci, c := range sc.Comms {
		if routings[ci].paths != nil {
			total += max(c.Count, 1)
		}
	}
	startAt := sc.starts(total)

	res := &ScenarioResult{Mode: FluidMode}
	type live struct {
		fid   int // fluid flow ID
		idx   int
		bytes int // payload, after any per-commodity override
	}
	var flows []live
	cloneFids := make(map[int][]int)         // commodity flow ID -> clone fluid flow IDs
	routesOf := make(map[int]map[string]int) // commodity flow ID -> path key -> route ID
	commOf := make(map[int]Commodity, len(sc.Comms))
	fi := 0
	for ci, c := range sc.Comms {
		r := &routings[ci]
		if r.paths == nil {
			continue
		}
		commOf[c.Flow] = c
		fb := flowBytes
		if c.FlowBytes > 0 {
			fb = c.FlowBytes
		}
		routesOf[c.Flow] = make(map[string]int, len(r.paths))
		routes := make([]int, len(r.paths))
		for pi, path := range r.paths {
			routes[pi] = f.AddRoute(path)
			routesOf[c.Flow][PathKey(path)] = routes[pi]
		}
		for k := 0; k < max(c.Count, 1); k++ {
			pi := 0
			if r.assign != nil {
				pi = r.assign[k]
			}
			idx := len(res.Flows)
			res.Flows = append(res.Flows, FlowResult{Flow: c.Flow, Start: startAt[fi]})
			fid := f.StartAt(routes[pi], float64(fb), startAt[fi])
			cloneFids[c.Flow] = append(cloneFids[c.Flow], fid)
			flows = append(flows, live{fid: fid, idx: idx, bytes: fb})
			fi++
		}
	}

	// Interleave failure events and path updates with the fluid run: advance
	// to each action time, apply the batch, recompute once. Failures sort
	// before updates at the same instant, matching the packet engine's
	// scheduling order.
	sc.checkFailures()
	type action struct {
		t    float64
		fail int // index into sc.Failures, or -1
		upd  int // index into sc.Updates, or -1
	}
	var acts []action
	for i, ev := range sc.Failures {
		acts = append(acts, action{t: ev.Time, fail: i, upd: -1})
	}
	for i, u := range sc.Updates {
		acts = append(acts, action{t: u.Time, fail: -1, upd: i})
	}
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].t < acts[j].t })
	for ai := 0; ai < len(acts); {
		t := acts[ai].t
		if t > horizon {
			break
		}
		f.Run(t)
		for ; ai < len(acts) && acts[ai].t == t; ai++ {
			a := acts[ai]
			if a.fail >= 0 {
				ev := sc.Failures[a.fail]
				l := sc.Links[ev.Link]
				rate := 0.0
				if ev.Up {
					rate = float64(l.RateBps)
				}
				f.SetLinkRate(l.A, l.B, rate)
				f.SetLinkRate(l.B, l.A, rate)
				continue
			}
			u := sc.Updates[a.upd]
			fids := cloneFids[u.Flow]
			if len(fids) == 0 {
				continue // commodity unroutable at setup: no clones to move
			}
			paths, fracs := splitPaths(commOf[u.Flow], u.Paths)
			if len(paths) == 0 {
				panic(fmt.Sprintf("netsim: path update for commodity %d has no usable path", u.Flow))
			}
			routes := make([]int, len(paths))
			for pi, path := range paths {
				key := PathKey(path)
				rid, ok := routesOf[u.Flow][key]
				if !ok {
					rid = f.AddRoute(path)
					routesOf[u.Flow][key] = rid
				}
				routes[pi] = rid
			}
			assign := sc.updateAssign(a.upd, len(fids), fracs)
			for k, fid := range fids {
				pi := 0
				if assign != nil {
					pi = assign[k]
				}
				f.Reroute(fid, routes[pi])
			}
		}
		f.Recompute()
	}
	f.Run(horizon)
	res.End = f.Now()
	res.EventsProcessed = f.Processed()
	for _, l := range flows {
		fr := &res.Flows[l.idx]
		if fct, done := f.FCT(l.fid); done {
			fr.FCT = fct
			fr.Completed = true
			fr.MeanRateBps = float64(l.bytes) * 8 / fct
			res.Completed++
		} else if el := res.End - fr.Start; el > 0 {
			fr.MeanRateBps = f.ServedBytes(l.fid) * 8 / el
		}
	}
	res.finishLinkLoads(f.LinkUtilizations())
	publishObs(res, f.MaxPending(), 0)
	return res
}

// publishObs records a finished run's figures on the active obs sink:
// cumulative event/flow/drop counters, the high-water count of pending
// events (MaxPending; in packet mode, packets on delay lines count), and
// per-link utilization gauges — all labelled by engine mode. Engine
// hot loops never touch obs; everything here is read from plain engine
// counters once per run, so the disabled path costs nothing and the
// enabled path costs O(links) at run end.
func publishObs(res *ScenarioResult, maxPending int, drops int64) {
	snk := obs.Active()
	if snk == nil {
		return
	}
	mode := res.Mode.String()
	snk.Counter("cisp_netsim_runs_total", "mode", mode).Inc()
	snk.Counter("cisp_netsim_events_total", "mode", mode).Add(res.EventsProcessed)
	snk.Counter("cisp_netsim_flows_total", "mode", mode).Add(int64(len(res.Flows)))
	snk.Counter("cisp_netsim_flows_completed_total", "mode", mode).Add(int64(res.Completed))
	snk.Counter("cisp_netsim_drops_total", "mode", mode).Add(drops)
	snk.Gauge("cisp_netsim_heap_depth_max", "mode", mode).SetMax(float64(maxPending))
	snk.Gauge("cisp_netsim_mlu", "mode", mode).Set(float64(res.MLU))
	for _, l := range res.LinkLoads {
		snk.Gauge("cisp_netsim_link_utilization",
			"link", fmt.Sprintf("%d-%d", l.From, l.To), "mode", mode).Set(float64(l.Utilization))
	}
}
