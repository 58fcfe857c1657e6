package netsim

import (
	"fmt"
	"math"

	"cisp/internal/units"
	"cisp/internal/xheap"
)

// FluidSim is the flow-level counterpart of the packet simulator: instead of
// individual packets it models each flow as a fluid stream whose rate is the
// weighted max-min fair share of its path (progressive filling, the
// steady-state allocation TCP approximates), recomputed event-driven on
// every flow arrival and departure. This is what lets §6.4-style traffic
// mixes from internal/traffic be replayed with 10⁵–10⁶ concurrent flows
// over full designed topologies — far beyond what per-packet simulation
// reaches.
//
// Flows that share a route are grouped: the allocator works on routes
// (bounded by distinct commodity paths, ~10⁴ on a 100-node design), not
// individual flows, and each group tracks its members' departures through a
// cumulative service accumulator — a flow of B bytes arriving when the
// group has served S bytes per flow departs when the accumulator reaches
// S + B. The allocator is incremental (see recompute): each allocation
// logs its bottleneck rounds (a round freezes one bottleneck link's routes)
// and, per link, the subtractions the link received; a write to a link's
// flow count or capacity marks the link dirty, and the next allocation
// replays the logged rounds whose bottleneck is still clean and keeps and
// scans only dirty links' residuals. Per-event cost is O(rounds + routes
// frozen afresh or dropped + subtractions on dirty links + dirty-link
// scans), independent of the number of concurrent flows and of the links
// an event cannot reach. Superseded departure events are dropped lazily,
// and the departure heap is compacted before a push would take it past
// twice the route count, so it never holds more than 2 × routes entries.
//
// The simulation is deterministic: allocation picks the same bottlenecks,
// in the same order, as a scan of every link in index order, and all heap
// orderings carry explicit tie-breaks.
type FluidSim struct {
	processed  int64       // events executed (live departures + arrivals)
	maxPending int         // arrivals+departures heap high-water mark
	links      []fluidLink // by directed ID in index
	index      *LinkIndex
	groups     []fluidGroup
	now        float64

	// Per-flow state, indexed by flow ID (assigned densely by StartAt).
	flowRoute []int32
	flowBytes []float64
	flowThr   []float64 // departure threshold on the group's service axis
	flowStart []float64
	flowFCT   []float64 // -1 until completed

	// Reroute bookkeeping for utilization attribution: bytes a flow served
	// on routes it has since left are credited to those links at the moment
	// of the move (linkServed), and flowCredited records how much of each
	// flow's service has been credited so far — the uncredited remainder
	// belongs to the flow's current route.
	flowCredited []float64
	linkServed   []float64

	active    int // currently running flows
	completed int

	arrivals []arrivalItem
	deps     []depItem

	// Allocator state. linkW (active flows per link) and capBps (current
	// capacity; 0 = link down) are maintained incrementally, and every
	// write to either marks the link dirty for the next recompute. scratchW
	// and scratchR are a recompute's residual weight and capacity, current
	// only on dirty links.
	linkW    []float64
	capBps   []float64
	scratchW []float64
	scratchR []float64
	frozenAt []int64
	epoch    int64 // stamps frozenAt, dirtyAt and keptAt; advanced after each recompute

	// Allocation log: rounds[:nRounds] are the last recompute's bottleneck
	// rounds in order. The groups round k froze are not listed here: they
	// are the tail of its bottleneck's link log (roundGroups). A recompute
	// writes its rounds into nextRounds, then swaps. Rounds never outnumber
	// links (each drains its bottleneck), so NewFluid sizes both.
	rounds, nextRounds []fluidRound
	nRounds            int

	// Round slots name a round in the per-link logs and keep that name
	// while the round is replayed, so a clean link's log outlives the
	// renumbering of rounds. slotRound[s] is slot s's round index in the
	// last allocation, and keptAt[s] == epoch marks a slot whose round the
	// running recompute replayed. free[:nFree] are the unused slots. A
	// recompute frees the previous allocation's dropped rounds only when it
	// ends, so it holds at most 2 × links slots.
	slotRound []int32
	keptAt    []int64
	free      []int32
	nFree     int

	// Dirty links: dirtyAt[li] == epoch marks a link whose weight or
	// capacity changed since the last recompute, or (during one) whose
	// residuals left the logged ones. dirty[:nDirty] lists them; a
	// recompute drops a link from the list once it is drained.
	dirtyAt []int64
	dirty   []int32
	nDirty  int

	// Work counters, read by the tests: rounds run fresh and replayed, and
	// residual subtractions made.
	freshRounds, replayedRounds, subtractions int64
}

type fluidLink struct {
	from, to int
	origCap  float64 // construction-time (clear-sky) capacity, for utilization reporting
	groups   []int32 // routes crossing this link (grows with AddRoute)

	// log[:nLog] are the subtractions the link received in the last
	// allocation, in order. A recompute reads a dirty link's log from pos,
	// due being the round index of log[pos] (math.MaxInt32 once spent), and
	// writes the link's new log into next[:nNext]. A route subtracts at
	// most once per crossing, so AddRoute sizes both to len(groups).
	log, next        []fluidSub
	nLog, pos, nNext int32
	due              int32
}

// fluidRound is one logged bottleneck round: the link it drained, its
// slot, and the per-flow share it froze its groups at.
type fluidRound struct {
	link, slot int32
	share      float64
}

// fluidSub is one logged subtraction: the slot of the round that made it
// and the group it froze. Its weight and share need no record: catch-up
// applies an entry only while its round replays, a round replays only
// while its bottleneck is clean, and a change to one of its groups' flow
// counts dirties that bottleneck. So the weight is the group's current
// flow count and the share the round's.
type fluidSub struct {
	slot, group int32
}

type fluidGroup struct {
	links    []int32
	n        int       // active flows
	rate     float64   // per-flow rate, bps
	svc      float64   // cumulative per-flow service, bytes
	lastT    float64   // time svc was last advanced to
	thr      []thrItem // pending departure thresholds, min first
	gen      int64     // invalidates stale departure events
	hasEvent bool      // a departure event with the current gen is queued
}

type thrItem struct {
	thr  float64
	flow int32
}

// thrLess orders departure thresholds min-first, flow ID as tie-break.
// Top-level so xheap call sites stay allocation-free (DESIGN.md §9).
func thrLess(a, b thrItem) bool {
	if a.thr != b.thr {
		return a.thr < b.thr
	}
	return a.flow < b.flow
}

type depItem struct {
	t   float64
	g   int32
	gen int64
}

// depLess orders departure events by time, group index as tie-break.
func depLess(a, b depItem) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.g < b.g
}

type arrivalItem struct {
	t    float64
	flow int32
}

// arrivalLess orders arrivals by time, flow ID as tie-break.
func arrivalLess(a, b arrivalItem) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.flow < b.flow
}

// NewFluid builds a fluid simulator over the duplex topology (two directed
// fluid links per TopoLink; queue capacities are meaningless at the fluid
// level and ignored).
//
// Panics on a topology NewLinkIndex refuses or on a rate that is NaN,
// infinite or negative.
func NewFluid(nNodes int, links []TopoLink) *FluidSim {
	index, err := NewLinkIndex(nNodes, links)
	if err != nil {
		panic(err.Error())
	}
	f := &FluidSim{index: index, epoch: 1}
	add := func(a, b int, capBps float64) {
		checkFluidRate(a, b, capBps)
		f.links = append(f.links, fluidLink{from: a, to: b, origCap: capBps})
		f.capBps = append(f.capBps, capBps)
	}
	for _, l := range links {
		add(l.A, l.B, float64(l.RateBps))
		add(l.B, l.A, float64(l.RateBps))
	}
	n := len(f.links)
	f.linkW = make([]float64, n)
	f.scratchW = make([]float64, n)
	f.scratchR = make([]float64, n)
	f.linkServed = make([]float64, n)
	f.rounds = make([]fluidRound, n)
	f.nextRounds = make([]fluidRound, n)
	f.slotRound = make([]int32, 2*n)
	f.keptAt = make([]int64, 2*n)
	f.free = make([]int32, 2*n)
	for s := range f.free {
		f.free[s] = int32(len(f.free) - 1 - s)
	}
	f.nFree = len(f.free)
	f.dirtyAt = make([]int64, n)
	f.dirty = make([]int32, n)
	return f
}

// checkFluidRate panics unless capBps is a usable link rate: finite and
// not negative. A NaN or infinite capacity never bottlenecks, so flows
// crossing only such links would keep stale rates.
func checkFluidRate(from, to int, capBps float64) {
	if math.IsNaN(capBps) || math.IsInf(capBps, 0) || capBps < 0 {
		panic(fmt.Sprintf("netsim: fluid link %d->%d has rate %v bps", from, to, capBps))
	}
}

// AddRoute registers a directed route (a node path of length >= 2) and
// returns its ID. All flows started on the same route share one allocation
// group. Panics if a hop has no link.
func (f *FluidSim) AddRoute(path []int) int {
	if len(path) < 2 {
		panic("netsim: fluid route must have at least two nodes")
	}
	gid := int32(len(f.groups))
	g := fluidGroup{links: make([]int32, len(path)-1)}
	for i := 0; i+1 < len(path); i++ {
		li, ok := f.index.Lookup(path[i], path[i+1])
		if !ok {
			panic(fmt.Sprintf("netsim: no fluid link %d->%d on route", path[i], path[i+1]))
		}
		g.links[i] = li
		l := &f.links[li]
		l.groups = append(l.groups, gid)
		l.log = append(l.log, fluidSub{})
		l.next = append(l.next, fluidSub{})
	}
	f.groups = append(f.groups, g)
	f.frozenAt = append(f.frozenAt, 0)
	return int(gid)
}

// StartAt schedules a flow of the given payload on a registered route,
// arriving at time at (>= the current simulation time), and returns its
// flow ID. Flow IDs count up from 0 in StartAt order. FCTs are measured
// from at. A payload of at most 0 bytes counts as 1 byte.
//
// Panics on an unregistered route, a NaN arrival time, or a NaN or +Inf
// payload: a NaN event time never fires and never ends Run, and an
// infinite payload makes the served bytes and utilizations NaN.
func (f *FluidSim) StartAt(route int, bytes float64, at float64) int {
	switch id := len(f.flowRoute); {
	case route < 0 || route >= len(f.groups):
		panic(fmt.Sprintf("netsim: fluid flow %d on unregistered route %d", id, route))
	case math.IsNaN(at):
		panic(fmt.Sprintf("netsim: fluid flow %d arrives at %v s", id, at))
	case math.IsNaN(bytes) || math.IsInf(bytes, 1):
		panic(fmt.Sprintf("netsim: fluid flow %d carries %v bytes", id, bytes))
	}
	if at < f.now {
		at = f.now
	}
	if bytes <= 0 {
		bytes = 1
	}
	id := int32(len(f.flowRoute))
	f.flowRoute = append(f.flowRoute, int32(route))
	f.flowBytes = append(f.flowBytes, bytes)
	f.flowThr = append(f.flowThr, 0)
	f.flowStart = append(f.flowStart, at)
	f.flowFCT = append(f.flowFCT, -1)
	f.flowCredited = append(f.flowCredited, 0)
	xheap.Push(&f.arrivals, arrivalItem{t: at, flow: id}, arrivalLess)
	return int(id)
}

// Start schedules a flow arriving now.
func (f *FluidSim) Start(route int, bytes float64) int {
	return f.StartAt(route, bytes, f.now)
}

// Now returns the current simulation time in seconds.
func (f *FluidSim) Now() float64 { return f.now }

// Processed returns the number of events executed (live departure and
// arrival events; stale, superseded departures are not counted). The
// benchmark harness divides wall time by it to report ns/event.
func (f *FluidSim) Processed() int64 { return f.processed }

// MaxPending returns the high-water mark of queued arrival+departure
// events — the observability layer's heap-depth figure. Arrivals are
// queued at StartAt; departures hold at most one live event per route
// plus superseded ones, and compaction keeps them to 2 × routes.
func (f *FluidSim) MaxPending() int { return f.maxPending }

// Active returns the number of currently running flows.
func (f *FluidSim) Active() int { return f.active }

// Completed returns the number of finished flows.
func (f *FluidSim) Completed() int { return f.completed }

// FCT returns a flow's completion time in seconds (measured from its
// arrival) and whether it has completed.
func (f *FluidSim) FCT(flow int) (float64, bool) {
	v := f.flowFCT[flow]
	return v, v >= 0
}

// ServedBytes returns how much of a flow's payload has been transferred.
func (f *FluidSim) ServedBytes(flow int) float64 {
	if f.flowFCT[flow] >= 0 {
		return f.flowBytes[flow]
	}
	if f.flowThr[flow] == 0 {
		return 0 // scheduled but not yet admitted (thresholds are always > 0)
	}
	g := &f.groups[f.flowRoute[flow]]
	svc := g.svc + g.rate/8*(f.now-g.lastT)
	served := f.flowBytes[flow] - (f.flowThr[flow] - svc)
	if served < 0 {
		return 0
	}
	if served > f.flowBytes[flow] {
		return f.flowBytes[flow]
	}
	return served
}

// RouteRate returns the current per-flow max-min rate (bps) on a route.
func (f *FluidSim) RouteRate(route int) float64 { return f.groups[route].rate }

// LinkUtilizations returns every directed link's time-average utilization
// over [0, Now()]: bytes served across the link (completed and in-progress
// flows both counted) divided by capacity × elapsed time. A rerouted
// flow's service is split between routes: bytes served before each move
// were credited to the old route's links at Reroute time, and only the
// uncredited remainder counts against the current route. Links appear in
// construction order (A→B then B→A per TopoLink). Cost is
// O(links + flows × path length), intended for end-of-run reporting.
func (f *FluidSim) LinkUtilizations() []LinkLoad {
	served := append([]float64(nil), f.linkServed...)
	for id := range f.flowRoute {
		sb := f.ServedBytes(id) - f.flowCredited[id]
		if sb <= 0 {
			continue
		}
		for _, li := range f.groups[f.flowRoute[id]].links {
			served[li] += sb
		}
	}
	out := make([]LinkLoad, len(f.links))
	for li := range f.links {
		l := &f.links[li]
		u := 0.0
		// Utilization is measured against the construction-time capacity, so
		// a link that spent part of the run failed (capBps 0) still reports
		// the load it actually carried.
		if f.now > 0 && l.origCap > 0 {
			u = served[li] * 8 / (l.origCap * f.now)
			if u > 1 {
				u = 1
			}
		}
		out[li] = LinkLoad{From: l.from, To: l.to, Utilization: units.Utilization(u)}
	}
	return out
}

// SetLinkRate updates a directed link's capacity mid-run: 0 takes the link
// down (flows crossing it re-rate to zero and stall), a positive rate
// restores or resizes it. Edits do not take effect until the next
// Recompute — batch a set of SetLinkRate/Reroute calls and recompute once.
// Panics on an unknown link or a NaN, infinite or negative rate.
func (f *FluidSim) SetLinkRate(from, to int, capBps float64) {
	li, ok := f.index.Lookup(from, to)
	if !ok {
		panic(fmt.Sprintf("netsim: no fluid link %d->%d", from, to))
	}
	checkFluidRate(from, to, capBps)
	f.capBps[li] = capBps
	f.markDirty(li)
}

// Recompute re-runs the max-min allocation and reschedules departure
// events. Call once after a batch of SetLinkRate / Reroute edits; arrivals
// and departures processed by Run recompute on their own.
func (f *FluidSim) Recompute() { f.recompute() }

// Reroute moves a flow onto another registered route, carrying its
// remaining bytes: the flow departs when the new group has served them.
// Pending (not yet admitted) flows simply start on the new route; completed
// flows and no-op moves are ignored. A flow whose remaining payload is
// already zero (its departure event just hasn't fired) completes in place.
// Like SetLinkRate, the rate effect lands at the next Recompute. Panics
// on an unknown flow or an unregistered route.
func (f *FluidSim) Reroute(flow, route int) {
	switch {
	case flow < 0 || flow >= len(f.flowRoute):
		panic(fmt.Sprintf("netsim: reroute of unknown flow %d", flow))
	case route < 0 || route >= len(f.groups):
		panic(fmt.Sprintf("netsim: reroute of flow %d onto unregistered route %d", flow, route))
	}
	if f.flowFCT[flow] >= 0 || int(f.flowRoute[flow]) == route {
		return
	}
	if f.flowThr[flow] == 0 { // pending: admit reads flowRoute at arrival time
		f.flowRoute[flow] = int32(route)
		return
	}
	g := &f.groups[f.flowRoute[flow]]
	f.advance(g)
	remaining := f.flowThr[flow] - g.svc

	// Credit the bytes served on the route being left, so utilization
	// reporting attributes them to the links that actually carried them.
	served := f.flowBytes[flow] - math.Max(remaining, 0)
	if delta := served - f.flowCredited[flow]; delta > 0 {
		for _, li := range g.links {
			f.linkServed[li] += delta
		}
		f.flowCredited[flow] = served
	}

	// Detach from the old group.
	for i := range g.thr {
		if g.thr[i].flow == int32(flow) {
			xheap.Remove(&g.thr, i, thrLess)
			break
		}
	}
	g.n--
	for _, li := range g.links {
		f.linkW[li]--
		f.markDirty(li)
	}
	if g.n == 0 {
		g.rate = 0
	}
	g.gen++
	g.hasEvent = false

	if remaining <= 0 {
		// Fully served; its departure event was pending. Complete in place.
		f.flowFCT[flow] = f.now - f.flowStart[flow]
		f.completed++
		f.active--
		return
	}

	// Attach to the new group with the remaining payload.
	ng := &f.groups[route]
	f.advance(ng)
	ng.n++
	ng.gen++
	ng.hasEvent = false
	f.flowRoute[flow] = int32(route)
	f.flowThr[flow] = ng.svc + remaining
	xheap.Push(&ng.thr, thrItem{thr: ng.svc + remaining, flow: int32(flow)}, thrLess)
	for _, li := range ng.links {
		f.linkW[li]++
		f.markDirty(li)
	}
}

// advance accrues a group's service up to the current time.
//
//cisp:hotpath
func (f *FluidSim) advance(g *fluidGroup) {
	if f.now > g.lastT {
		g.svc += g.rate / 8 * (f.now - g.lastT)
	}
	g.lastT = f.now
}

// Run processes arrivals and departures until the event queues drain or
// simulated time reaches until (inclusive). Rates are recomputed after each
// batch of same-time events.
//
//cisp:hotpath
func (f *FluidSim) Run(until float64) {
	for {
		if n := len(f.arrivals) + len(f.deps); n > f.maxPending {
			f.maxPending = n
		}
		tA, tD := math.Inf(1), math.Inf(1)
		if len(f.arrivals) > 0 {
			tA = f.arrivals[0].t
		}
		// Skip stale departure events (superseded by a newer reschedule).
		for len(f.deps) > 0 {
			top := f.deps[0]
			if g := &f.groups[top.g]; g.gen != top.gen {
				xheap.Pop(&f.deps, depLess)
				continue
			}
			tD = top.t
			break
		}
		t := math.Min(tA, tD)
		if t > until || math.IsInf(t, 1) {
			break
		}
		if t > f.now {
			f.now = t
		}
		changed := false
		// Departures first: their service accrual is closed at t before any
		// same-instant arrival perturbs the group.
		for len(f.deps) > 0 && f.deps[0].t <= f.now {
			it := xheap.Pop(&f.deps, depLess)
			g := &f.groups[it.g]
			if g.gen != it.gen {
				continue
			}
			f.departGroup(it.g)
			f.processed++
			changed = true
		}
		for len(f.arrivals) > 0 && f.arrivals[0].t <= f.now {
			it := xheap.Pop(&f.arrivals, arrivalLess)
			f.admit(it)
			f.processed++
			changed = true
		}
		if changed {
			f.recompute()
		}
	}
	if f.now < until {
		f.now = until
	}
	// Close service accrual so rate/progress queries at the horizon are
	// consistent.
	for gi := range f.groups {
		if f.groups[gi].n > 0 {
			f.advance(&f.groups[gi])
		}
	}
}

// admit activates an arrived flow on its current route (flowRoute is read
// at admission, not at StartAt, so a Reroute of a still-pending flow takes
// effect when the flow starts).
//
//cisp:hotpath
func (f *FluidSim) admit(it arrivalItem) {
	g := &f.groups[f.flowRoute[it.flow]]
	f.advance(g)
	g.n++
	g.gen++ // the pending-departure minimum may have changed
	g.hasEvent = false
	bytes := f.flowBytes[it.flow]
	f.flowThr[it.flow] = g.svc + bytes
	xheap.Push(&g.thr, thrItem{thr: g.svc + bytes, flow: it.flow}, thrLess)
	for _, li := range g.links {
		f.linkW[li]++
		f.markDirty(li)
	}
	f.active++
}

// departGroup completes every flow of the group whose threshold has been
// reached at the current time.
//
//cisp:hotpath
func (f *FluidSim) departGroup(gi int32) {
	g := &f.groups[gi]
	f.advance(g)
	// The fired event corresponds to the minimum threshold under the rates
	// it was computed with; floating-point round-trip can leave svc a hair
	// short. Snap forward so the due flow always departs.
	if len(g.thr) > 0 && g.svc < g.thr[0].thr {
		g.svc = g.thr[0].thr
	}
	for len(g.thr) > 0 && g.thr[0].thr <= g.svc {
		it := xheap.Pop(&g.thr, thrLess)
		f.flowFCT[it.flow] = f.now - f.flowStart[it.flow]
		f.completed++
		f.active--
		g.n--
		for _, li := range g.links {
			f.linkW[li]--
			f.markDirty(li)
		}
	}
	if g.n == 0 {
		g.rate = 0
	}
	g.gen++
	g.hasEvent = false
}

// recompute reruns weighted progressive filling: repeatedly find the link
// with the smallest fair share (residual capacity / unfrozen flow count,
// the first in index order among equal shares), freeze every route through
// it at that per-flow rate, and subtract the frozen routes from their
// other links. Groups whose rate changed or whose pending event was
// invalidated get a fresh departure event.
//
// It does so incrementally, from the previous recompute's log of rounds,
// and picks the same bottlenecks in the same order as a scan of every link
// would. A clean link (not dirty) has the same initial weight and capacity
// as last time and has received the same subtractions, in the same order,
// as at the same point of the previous allocation, so its share and
// liveness are the logged ones. The logged rounds are walked in order:
//   - a round whose bottleneck is dirty is dropped, and every link of its
//     groups turns dirty (those links miss its subtractions);
//   - otherwise its bottleneck sorts before every clean live link, as it
//     did last time, so unless the least dirty live link sorts first by
//     (share, link index) the round is replayed verbatim: same share, same
//     groups (any change among them would have dirtied the bottleneck),
//     same subtraction order;
//   - when the dirty link sorts first it runs a fresh round, freezing its
//     active unfrozen groups and dirtying all their links.
//
// The per-link logs are the one record of an allocation: each link logs
// the subtractions it receives as (round slot, group), and a link that
// stays clean receives the same list again and keeps its log. A replayed
// round reads none of its groups. A dropped round reads them from its
// bottleneck's log (roundGroups), which holds none if that link already
// drained and committed in this recompute, when none need dirtying. A
// link that turns dirty starts from its current weight and capacity and
// catches up from its own log to the replay point, applying the entries of
// replayed rounds, each at its group's flow count and its round's share
// (see fluidSub), and skipping those of dropped ones: the same
// subtractions in the same order, so its residuals are bit-exact. It
// catches up only when read: at a scan, if an entry has fallen due, and
// before a fresh round subtracts from it. The least dirty link is kept
// until a link turns dirty, a fresh round runs or a dirty link's entry
// falls due. A fresh round marks frozen the groups in its bottleneck's new
// log, which holds every replayed group it could meet. A replayed group
// needs no setRate: its rate is the logged share (a change to it would
// have dirtied the round's bottleneck), and either its departure event is
// live or its rate is 0 and it has none.
//
// A drained link leaves the dirty list with its new log final: every group
// crossing it is frozen or idle, so its later entries belong to rounds
// that will be dropped. The walk ends when no logged round is left and no
// dirty link is live, so every dirty link has left the list, and the slots
// of the rounds not replayed are freed. The first recompute is the same
// loop with an empty log, every loaded link dirty. A recompute costs
// O(rounds + groups frozen afresh or dropped + subtractions on dirty links
// + dirty-link scans). TestFluidMatchesReference and
// FuzzFluidMatchesReference hold every rate, the round log and every
// link's log to a full-scan reference; TestFluidReplayWorkPinned pins the
// rounds run fresh and replayed and the subtractions made.
//
//cisp:hotpath
func (f *FluidSim) recompute() {
	for _, li := range f.dirty[:f.nDirty] {
		f.resetLink(li)
	}
	k, nr := 0, 0 // next logged round, and rounds logged so far
	// The least dirty link, its share, the first round a dirty link's log
	// falls due at, and whether a link turned dirty or changed since.
	d, share, due, stale := int32(-1), 0.0, int32(0), true
	for {
		for k < f.nRounds && f.dirtyAt[f.rounds[k].link] == f.epoch {
			for _, e := range f.roundGroups(k) {
				for _, li := range f.groups[e.group].links {
					stale = f.turnDirty(li) || stale
				}
			}
			k++
		}
		if stale || due < int32(k) {
			d, share, due = f.leastDirty(k)
			stale = false
		}
		if k < f.nRounds {
			if r := f.rounds[k]; d < 0 || r.share < share || r.share == share && r.link < d {
				k++
				f.keptAt[r.slot] = f.epoch
				f.nextRounds[nr] = r
				nr++
				f.replayedRounds++
				continue
			}
		}
		if d < 0 {
			break // the log is spent and no dirty link is live
		}
		f.nFree--
		slot := f.free[f.nFree]
		l := &f.links[d]
		for _, e := range l.next[:l.nNext] {
			f.frozenAt[e.group] = f.epoch
		}
		for _, gi := range l.groups {
			if f.groups[gi].n == 0 || f.frozenAt[gi] == f.epoch {
				continue
			}
			f.freeze(gi, share, slot, k)
		}
		f.nextRounds[nr] = fluidRound{link: d, slot: slot, share: share}
		nr++
		f.freshRounds++
		stale = true
	}
	for _, r := range f.rounds[:f.nRounds] {
		if f.keptAt[r.slot] != f.epoch {
			f.free[f.nFree] = r.slot
			f.nFree++
		}
	}
	for i, r := range f.nextRounds[:nr] {
		f.slotRound[r.slot] = int32(i)
	}
	f.rounds, f.nextRounds = f.nextRounds, f.rounds
	f.nRounds = nr
	f.epoch++
}

// roundGroups returns logged round k's entries in its bottleneck's log:
// the groups it froze, in order, a group that crosses the bottleneck twice
// once per crossing. A round drains its bottleneck, so the link takes no
// subtraction after it: the round's entries are the log's tail that
// carries its slot. recompute reads a round only to drop it. If the
// bottleneck has already drained and committed its new log in the running
// recompute, no entry carries the slot (slots are freed only when a
// recompute ends) and none is returned. None is needed: no other logged
// round froze the round's groups, so each has since been frozen afresh or
// gone idle, and either dirtied every link the group crosses.
//
//cisp:hotpath
func (f *FluidSim) roundGroups(k int) []fluidSub {
	r := f.rounds[k]
	l := &f.links[r.link]
	i := l.nLog
	for i > 0 && l.log[i-1].slot == r.slot {
		i--
	}
	return l.log[i:l.nLog]
}

// freeze fixes an active, unfrozen group at a fresh round's share and
// takes its weight and allocation off every link it crosses, each caught
// up to round k first (turning dirty if it was clean).
//
//cisp:hotpath
func (f *FluidSim) freeze(gi int32, share float64, slot int32, k int) {
	f.frozenAt[gi] = f.epoch
	g := &f.groups[gi]
	if share != g.rate || !g.hasEvent { // otherwise setRate has nothing to do
		f.setRate(gi, share)
	}
	e, w := fluidSub{slot: slot, group: gi}, float64(g.n)
	for _, li := range g.links {
		f.turnDirty(li)
		if f.links[li].due < int32(k) {
			f.catchUp(li, k)
		}
		f.subtract(li, e, w, share)
	}
}

// subtract takes a group's weight w at a round's per-flow share off a
// dirty link's residuals and appends the entry e to the link's new log.
//
//cisp:hotpath
func (f *FluidSim) subtract(li int32, e fluidSub, w, share float64) {
	rw := f.scratchW[li] - w
	if rw < 1e-9 {
		rw = 0
	}
	f.scratchW[li] = rw
	rr := f.scratchR[li] - share*w
	if rr < 0 {
		rr = 0
	}
	f.scratchR[li] = rr
	l := &f.links[li]
	l.next[l.nNext] = e
	l.nNext++
	f.subtractions++
}

// catchUp applies a dirty link's logged subtractions from the rounds
// before k that this recompute replayed, skipping those of dropped rounds.
//
//cisp:hotpath
func (f *FluidSim) catchUp(li int32, k int) {
	l := &f.links[li]
	for ; l.pos < l.nLog; l.pos++ {
		e := l.log[l.pos]
		r := f.slotRound[e.slot]
		if r >= int32(k) {
			l.due = r
			return
		}
		if f.keptAt[e.slot] == f.epoch {
			f.subtract(li, e, float64(f.groups[e.group].n), f.rounds[r].share)
		}
	}
	l.due = math.MaxInt32
}

// resetLink starts a link that turned dirty from its current weight and
// capacity, with its log unread and its new log empty.
//
//cisp:hotpath
func (f *FluidSim) resetLink(li int32) {
	f.scratchW[li], f.scratchR[li] = f.linkW[li], f.capBps[li]
	l := &f.links[li]
	l.pos, l.nNext, l.due = 0, 0, math.MaxInt32
	if l.nLog > 0 {
		l.due = f.slotRound[l.log[0].slot]
	}
}

// markDirty marks a link whose weight or capacity changed, or whose
// residuals leave the logged ones within a recompute.
//
//cisp:hotpath
func (f *FluidSim) markDirty(li int32) {
	if f.dirtyAt[li] != f.epoch {
		f.dirtyAt[li] = f.epoch
		f.dirty[f.nDirty] = li
		f.nDirty++
	}
}

// turnDirty marks a link dirty within a recompute and resets it, and
// reports whether it was clean.
//
//cisp:hotpath
func (f *FluidSim) turnDirty(li int32) bool {
	if f.dirtyAt[li] == f.epoch {
		return false
	}
	f.markDirty(li)
	f.resetLink(li)
	return true
}

// leastDirty returns the live dirty link with the smallest (share, link
// index), or -1, its share, and the first round at which a live dirty
// link's log falls due. It catches up the links that owe entries from the
// rounds before k and drops drained links from the dirty list, committing
// their new logs as final: weight never comes back within a recompute.
//
//cisp:hotpath
func (f *FluidSim) leastDirty(k int) (int32, float64, int32) {
	best, bestShare, due := int32(-1), math.Inf(1), int32(math.MaxInt32)
	kept := 0
	for _, li := range f.dirty[:f.nDirty] {
		l := &f.links[li]
		if l.due < int32(k) {
			f.catchUp(li, k)
		}
		w := f.scratchW[li]
		if w <= 0 { // drained: commit its new log
			l.log, l.next = l.next, l.log
			l.nLog = l.nNext
			continue
		}
		f.dirty[kept] = li
		kept++
		due = min(due, l.due)
		share := f.scratchR[li] / w // never negative: rates are checked and residuals clamped
		if best < 0 || share < bestShare || share == bestShare && li < best {
			best, bestShare = li, share
		}
	}
	f.nDirty = kept
	return best, bestShare, due
}

// setRate applies a group's new allocation and (re)schedules its next
// departure event when the rate changed or no live event is queued.
//
//cisp:hotpath
func (f *FluidSim) setRate(gi int32, r float64) {
	g := &f.groups[gi]
	reschedule := r != g.rate
	if reschedule {
		f.advance(g)
		g.rate = r
	}
	if (reschedule || !g.hasEvent) && g.n > 0 {
		g.gen++
		g.hasEvent = false
		if len(g.thr) > 0 && g.rate > 0 {
			dt := (g.thr[0].thr - g.svc) * 8 / g.rate
			if dt < 0 {
				dt = 0
			}
			if len(f.deps) >= f.depsBound() {
				f.compactDeps()
			}
			xheap.Push(&f.deps, depItem{t: g.lastT + dt, g: gi, gen: g.gen}, depLess)
			g.hasEvent = true
		}
	}
}

// depsBound caps len(f.deps). Each route has at most one live departure
// event, so compacting at twice the route count drops at least half the
// entries, and its cost spreads to O(1) per push.
func (f *FluidSim) depsBound() int { return 2 * len(f.groups) }

// compactDeps drops superseded departure events (their gen no longer
// matches the group's) and re-heapifies the rest. Live events have unique
// (t, group) keys, so the pop order does not depend on the heap's shape.
//
//cisp:hotpath
func (f *FluidSim) compactDeps() {
	n := 0
	for _, d := range f.deps {
		if f.groups[d.g].gen == d.gen {
			f.deps[n] = d
			n++
		}
	}
	f.deps = f.deps[:n]
	xheap.Init(f.deps, depLess)
}
