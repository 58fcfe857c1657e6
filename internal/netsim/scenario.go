package netsim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	// to Scheme routing. A path whose fraction is at most 0 is unused; a
	// NaN or infinite fraction panics when the run starts.
	Splits map[int][]SplitPath

	// Failures is a timed link outage schedule applied during the run, in
	// both engine modes: at each event's Time, the duplex link
	// Links[Event.Link] goes down (queued and in-flight packets are lost,
	// fluid flows crossing it re-rate to zero) or comes back up. Events at
	// the same instant apply before any Updates at that instant. A Link
	// outside Links, or a NaN or infinite Time, panics when the run starts.
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
	// (internal/resilience). Both modes check every update when the run
	// starts, even one past the Horizon: a positive-fraction path that does
	// not connect the commodity, no positive fraction at all, a NaN or
	// infinite fraction, or a NaN or infinite Time panics. An update of a
	// commodity that has no flows moves nothing.
	Updates []PathUpdate

	FlowBytes   int     // payload per flow (default 100 KB; negative panics)
	Horizon     float64 // simulated seconds (default 30; NaN, infinite or negative panics)
	StartSpread float64 // flow starts drawn uniformly from [0, StartSpread] (0 = all at t=0; NaN, infinite or negative panics)
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
// flow ID Flow has its clone flows re-apportioned across Paths. Paths
// without a positive fraction are invalid; to model an unprotected
// commodity simply omit updates for it and let its flows stall on the dead
// path.
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

// replay is the engine-neutral expansion of a Scenario: everything a run
// replays, resolved and validated once. runPacket and runFluid only
// materialize it, so both engines see the same clone flows, per-path
// populations, action order and update draws by construction.
//
// Clones are numbered densely, commodity-major: clone i is Flows[i] of the
// result, flow i of the packet engine's Network and flow i of the
// FluidSim.
type replay struct {
	horizon float64
	comms   []replayComm   // routed commodities, in Scenario order
	flows   []FlowResult   // per clone: its commodity and start time
	acts    []replayAction // failures and updates, in the order they apply
}

// replayComm is one routed commodity and its clones [first, first+n). Each
// clone carries bytes of payload, and clone first+k starts on
// paths[pick(assign, k)].
type replayComm struct {
	Commodity
	bytes, first, n int
	paths           [][]int
	assign          []int
}

// replayAction is one timed action. A failure (link >= 0) takes the duplex
// link Links[link] down or, with up, restores it. An update (link < 0)
// moves clone first+k of comms[comm] onto paths[pick(assign, k)]; an
// update of a commodity with no clones (comm < 0) moves nothing.
type replayAction struct {
	t      float64
	link   int
	up     bool
	comm   int
	paths  [][]int
	assign []int
}

// pick returns clone k's path index under a split assignment (nil = every
// clone on path 0).
func pick(assign []int, k int) int {
	if assign == nil {
		return 0
	}
	return assign[k]
}

// expand resolves the scenario for one run. Commodities with a Splits
// entry get their weighted paths, the rest are routed by Scheme via
// ComputeRoutes; a commodity left with no path gets no clones.
//
// The random draws keep a fixed order: one Seed+2 source runs over the
// commodities in order and draws only for splits with at least two usable
// paths; start times come from Seed+1 over the clones; each update's draw
// is keyed by its index in Updates, not by when it applies. Malformed
// input panics here, before either engine starts, wherever it falls in
// time: a split or update path that does not connect its commodity, a
// NaN or infinite split or update fraction, an update with no positive
// fraction, a failure on a link outside Links, a NaN, infinite or negative
// Horizon or StartSpread, a negative FlowBytes, and a failure or update at
// a NaN or infinite Time. A NaN horizon would run both engines past any
// horizon, an action at a NaN time would never come due, and an infinite
// start spread would start no flow.
func (sc *Scenario) expand() *replay {
	switch h, s := sc.Horizon, sc.StartSpread; {
	case math.IsNaN(h) || math.IsInf(h, 0) || h < 0:
		panic(fmt.Sprintf("netsim: scenario horizon %v s", h))
	case math.IsNaN(s) || math.IsInf(s, 0) || s < 0:
		panic(fmt.Sprintf("netsim: scenario start spread %v s", s))
	case sc.FlowBytes < 0:
		panic(fmt.Sprintf("netsim: scenario flow size %d bytes", sc.FlowBytes))
	}
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
	x := &replay{horizon: cmp.Or(sc.Horizon, 30)}
	index := make(map[int]int, len(sc.Comms)) // commodity flow ID -> index into x.comms
	flowBytes := cmp.Or(sc.FlowBytes, 100<<10)
	rng := rand.New(rand.NewSource(sc.Seed + 2))
	clones := 0
	for _, c := range sc.Comms {
		rc := replayComm{Commodity: c, bytes: flowBytes, first: clones, n: max(c.Count, 1)}
		if c.FlowBytes > 0 {
			rc.bytes = c.FlowBytes
		}
		if sp := sc.Splits[c.Flow]; len(sp) > 0 {
			var fracs []float64
			rc.paths, fracs = splitPaths(c, sp)
			if len(rc.paths) > 1 {
				rc.assign = splitAssignments(rc.n, fracs, rng)
			}
		} else if p := single[c.Flow]; p != nil {
			rc.paths = [][]int{p}
		}
		if rc.paths == nil {
			continue
		}
		index[c.Flow] = len(x.comms)
		x.comms = append(x.comms, rc)
		clones += rc.n
	}

	x.flows = make([]FlowResult, clones)
	starts := rand.New(rand.NewSource(sc.Seed + 1))
	for ci := range x.comms {
		rc := &x.comms[ci]
		for i := rc.first; i < rc.first+rc.n; i++ {
			x.flows[i].Flow = rc.Flow
			if sc.StartSpread > 0 {
				x.flows[i].Start = starts.Float64() * sc.StartSpread
			}
		}
	}

	for _, ev := range sc.Failures {
		if ev.Link < 0 || ev.Link >= len(sc.Links) {
			panic(fmt.Sprintf("netsim: failure event link %d outside [0,%d)", ev.Link, len(sc.Links)))
		}
		if math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) {
			panic(fmt.Sprintf("netsim: failure event on link %d at %v s", ev.Link, ev.Time))
		}
		x.acts = append(x.acts, replayAction{t: ev.Time, link: ev.Link, up: ev.Up, comm: -1})
	}
	for ui, u := range sc.Updates {
		if math.IsNaN(u.Time) || math.IsInf(u.Time, 0) {
			panic(fmt.Sprintf("netsim: path update for commodity %d at %v s", u.Flow, u.Time))
		}
		a := replayAction{t: u.Time, link: -1, comm: -1}
		if ci, ok := index[u.Flow]; ok {
			var fracs []float64
			a.comm = ci
			a.paths, fracs = splitPaths(x.comms[ci].Commodity, u.Paths)
			if len(a.paths) == 0 {
				panic(fmt.Sprintf("netsim: path update for commodity %d has no usable path", u.Flow))
			}
			if len(a.paths) > 1 {
				draw := rand.New(rand.NewSource(sc.Seed + 1_000_003*int64(ui+1)))
				a.assign = splitAssignments(x.comms[ci].n, fracs, draw)
			}
		}
		x.acts = append(x.acts, a)
	}
	// Failures were appended first, so the stable sort applies same-instant
	// failures before same-instant updates, each kind in Scenario order.
	sort.SliceStable(x.acts, func(i, j int) bool { return x.acts[i].t < x.acts[j].t })
	return x
}

// settle fills in each clone's mean rate once a run has ended at res.End
// with every completed clone's FCT recorded: payload over FCT for a
// completed clone, the bytes it was served over the time since its start
// for an incomplete one.
func (x *replay) settle(res *ScenarioResult, served func(clone int) float64) {
	for ci := range x.comms {
		rc := &x.comms[ci]
		for i := rc.first; i < rc.first+rc.n; i++ {
			fr := &res.Flows[i]
			if fr.Completed {
				fr.MeanRateBps = float64(rc.bytes) * 8 / fr.FCT
				res.Completed++
			} else if el := res.End - fr.Start; el > 0 {
				fr.MeanRateBps = served(i) * 8 / el
			}
		}
	}
}

// splitPaths validates a commodity's weighted paths and extracts the
// positive-fraction ones. Panics on a NaN or infinite fraction and on a
// path that does not connect the commodity's endpoints — planning-layer
// bugs, not runtime conditions.
func splitPaths(c Commodity, sp []SplitPath) (paths [][]int, fracs []float64) {
	for _, s := range sp {
		if math.IsNaN(s.Frac) || math.IsInf(s.Frac, 0) {
			panic(fmt.Sprintf("netsim: split path %v of commodity %d has fraction %v", s.Path, c.Flow, s.Frac))
		}
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

// runPacket materializes the replay as TCP connections on a packet
// network. Starts are scheduled before actions, and actions in apply
// order, so same-instant events run in that order.
func (sc *Scenario) runPacket() *ScenarioResult {
	x := sc.expand()
	var sim Simulator
	nw := NewNetwork(&sim, sc.Nodes)
	BuildTopology(nw, sc.Links)
	res := &ScenarioResult{Mode: PacketMode, Flows: x.flows}
	conns := make([]*TCPConn, len(x.flows))
	for ci := range x.comms {
		rc := &x.comms[ci]
		revs := reversed(rc.paths)
		for k := 0; k < rc.n; k++ {
			id, pi := rc.first+k, pick(rc.assign, k)
			nw.SetFlowPath(id, rc.paths[pi])
			nw.SetFlowPath(id, revs[pi])
			fr := &res.Flows[id]
			conns[id] = &TCPConn{
				Net: nw, Flow: id, Src: rc.Src, Dst: rc.Dst, FlowSize: rc.bytes,
				Done: func(fct float64) { fr.FCT, fr.Completed = fct, true },
			}
			sim.Schedule(fr.Start, conns[id].Start)
		}
	}
	for _, a := range x.acts {
		switch {
		case a.link >= 0:
			l, down := sc.Links[a.link], !a.up
			ab, ba := nw.Link(l.A, l.B), nw.Link(l.B, l.A)
			sim.Schedule(a.t, func() {
				ab.SetDown(down)
				ba.SetDown(down)
			})
		case a.comm >= 0:
			// In-flight packets keep their resolved hops; retransmissions
			// take the new route.
			rc, revs := &x.comms[a.comm], reversed(a.paths)
			sim.Schedule(a.t, func() {
				for k := 0; k < rc.n; k++ {
					pi := pick(a.assign, k)
					nw.SetFlowPath(rc.first+k, a.paths[pi])
					nw.SetFlowPath(rc.first+k, revs[pi])
				}
			})
		}
	}
	sim.Run(x.horizon)
	res.End = sim.Now()
	res.EventsProcessed = sim.Processed()
	x.settle(res, func(i int) float64 { return float64(conns[i].Acked()) })
	loads := make([]LinkLoad, 0, len(nw.Links()))
	drops := int64(0)
	for _, l := range nw.Links() {
		loads = append(loads, LinkLoad{From: l.From, To: l.To, Utilization: units.Utilization(l.Utilization(res.End))})
		drops += l.Drops
	}
	res.finishLinkLoads(loads)
	publishObs(res, sim.MaxPending(), drops)
	return res
}

// reversed returns each node path reversed (the ACK direction).
func reversed(paths [][]int) [][]int {
	out := make([][]int, len(paths))
	for pi, path := range paths {
		out[pi] = make([]int, len(path))
		for i, v := range path {
			out[pi][len(path)-1-i] = v
		}
	}
	return out
}

// runFluid materializes the replay as fluid flows. Route IDs set the
// max-min iteration order, so routes are registered as they come into
// use: each commodity's paths at setup, in commodity order and duplicates
// included, and an update's new paths only when the update applies.
func (sc *Scenario) runFluid() *ScenarioResult {
	x := sc.expand()
	f := NewFluid(sc.Nodes, sc.Links)
	res := &ScenarioResult{Mode: FluidMode, Flows: x.flows}
	reg := make([]registered, len(x.comms))
	for ci := range x.comms {
		rc := &x.comms[ci]
		routes := make([]int, len(rc.paths))
		for pi, path := range rc.paths {
			routes[pi] = f.AddRoute(path)
		}
		reg[ci] = registered{paths: rc.paths[:len(rc.paths):len(rc.paths)], routes: routes}
		for k := 0; k < rc.n; k++ {
			f.StartAt(routes[pick(rc.assign, k)], float64(rc.bytes), x.flows[rc.first+k].Start)
		}
	}

	// Advance to each action time, apply the batch due then, recompute once.
	for ai := 0; ai < len(x.acts); {
		t := x.acts[ai].t
		if t > x.horizon {
			break
		}
		f.Run(t)
		for ; ai < len(x.acts) && x.acts[ai].t == t; ai++ {
			a := &x.acts[ai]
			switch {
			case a.link >= 0:
				l, rate := sc.Links[a.link], 0.0
				if a.up {
					rate = float64(l.RateBps)
				}
				f.SetLinkRate(l.A, l.B, rate)
				f.SetLinkRate(l.B, l.A, rate)
			case a.comm >= 0:
				rc := &x.comms[a.comm]
				routes := make([]int, len(a.paths))
				for pi, path := range a.paths {
					routes[pi] = reg[a.comm].route(f, path)
				}
				for k := 0; k < rc.n; k++ {
					f.Reroute(rc.first+k, routes[pick(a.assign, k)])
				}
			}
		}
		f.Recompute()
	}
	f.Run(x.horizon)
	res.End = f.Now()
	res.EventsProcessed = f.Processed()
	for i := range res.Flows {
		if fct, done := f.FCT(i); done {
			res.Flows[i].FCT, res.Flows[i].Completed = fct, true
		}
	}
	x.settle(res, f.ServedBytes)
	res.finishLinkLoads(f.LinkUtilizations())
	publishObs(res, f.MaxPending(), 0)
	if fluidObserve != nil {
		fluidObserve(f)
	}
	return res
}

// registered is one commodity's fluid routes with their paths, in
// registration order, duplicates included.
type registered struct {
	paths  [][]int
	routes []int
}

// route returns the last registered route over path, registering a new
// one when none matches.
func (r *registered) route(f *FluidSim, path []int) int {
	for i := len(r.paths) - 1; i >= 0; i-- {
		if slices.Equal(r.paths[i], path) {
			return r.routes[i]
		}
	}
	r.paths = append(r.paths, path)
	r.routes = append(r.routes, f.AddRoute(path))
	return r.routes[len(r.routes)-1]
}

// fluidObserve, when non-nil, is handed the engine of every finished fluid
// run. The allocator's work ratchet reads its round counts through it.
var fluidObserve func(*FluidSim)

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
