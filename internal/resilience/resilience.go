// Package resilience is the failure-resilience subsystem of the hybrid
// cISP backbone: where internal/weather models gradual precipitation
// impairment, this package models hard failures — a tower down, a conduit
// cut, a city offline — and the machinery that keeps traffic flowing
// through them.
//
// It has three layers. The failure engine draws deterministic, seeded
// outage schedules from per-element MTBF/MTTR distributions (Element,
// DrawSchedule); elements can be single links, tower-count-weighted
// microwave paths, or whole cities, and schedules compose with the weather
// interval schedule (WeatherSchedule, Merge). The fast-reroute layer
// (Protection) precomputes, for every commodity, a backup path that is
// maximally link-disjoint from the primaries the TE control plane
// installed — chosen from the candidate pool of the very te.Controller
// that installed them, over its topology, so backups honor its
// latency-stretch cap — and compiles a Plan of
// timed netsim path updates that activates backups on failure events with
// zero LP solves on the event path, optionally followed by a
// te.Controller's warm full reoptimization swapping in when ready. The
// analysis layer (Availability) walks a schedule analytically — year-scale
// horizons cost milliseconds, no packet simulation — and reports
// availability, nines, and latency stretch under failure for each
// protection mode. See DESIGN.md §8.
package resilience

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cisp/internal/geo"
	"cisp/internal/netsim"
	"cisp/internal/units"
	"cisp/internal/weather"
)

// Element is one independently failing piece of infrastructure. When it
// fails, every topology link it covers goes down together — a link element
// covers just itself, a city element covers every link incident to the
// city, a regional element can cover an arbitrary correlated set.
type Element struct {
	Name  string
	Links []int         // indices into the topology's link list
	MTBF  units.Seconds // mean up time between failures
	MTTR  units.Seconds // mean time to repair
}

// Outage is one contiguous down interval of a single link.
type Outage struct {
	Link       int
	Start, End float64 // [Start, End) seconds; End is capped at the horizon
}

// Schedule is a deterministic link outage timetable over a horizon:
// per-link merged down intervals, ready to drive both netsim engines
// (Events) and the analytic availability walk. The zero schedule (no
// outages) is valid.
type Schedule struct {
	Horizon  float64
	NumLinks int
	Outages  []Outage // sorted by (Start, Link), non-overlapping per link
}

// DrawSchedule samples every element's alternating up/down lifetime
// (exponential with means MTBF and MTTR) over the horizon and folds the
// failures onto the links they cover. Element i draws from a source seeded
// by (seed, i), so the same seed always yields the same schedule and
// appending new elements never perturbs existing timelines (removing or
// reordering earlier elements shifts the indices — and therefore the
// draws — of everything after them). It panics on a NaN, infinite or
// negative horizon, which it could never draw to.
func DrawSchedule(els []Element, nLinks int, horizon float64, seed int64) *Schedule {
	if !finite(horizon) || horizon < 0 {
		panic(fmt.Sprintf("resilience: DrawSchedule horizon %v", horizon))
	}
	perLink := make([][]Outage, nLinks)
	for i, el := range els {
		if el.MTBF <= 0 || el.MTTR <= 0 {
			continue
		}
		rng := rand.New(rand.NewSource(seed + 7919*int64(i+1)))
		for t := rng.ExpFloat64() * float64(el.MTBF); t < horizon; {
			end := t + rng.ExpFloat64()*float64(el.MTTR)
			if end > horizon {
				end = horizon
			}
			for _, li := range el.Links {
				if li >= 0 && li < nLinks {
					perLink[li] = append(perLink[li], Outage{Link: li, Start: t, End: end})
				}
			}
			t = end + rng.ExpFloat64()*float64(el.MTBF)
		}
	}
	return scheduleFromPerLink(perLink, nLinks, horizon)
}

// scheduleFromPerLink merges each link's raw intervals and assembles the
// sorted schedule.
func scheduleFromPerLink(perLink [][]Outage, nLinks int, horizon float64) *Schedule {
	s := &Schedule{Horizon: horizon, NumLinks: nLinks}
	for li := range perLink {
		ivs := perLink[li]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].Start < ivs[b].Start })
		for _, iv := range ivs {
			if n := len(s.Outages); n > 0 && s.Outages[n-1].Link == li && iv.Start <= s.Outages[n-1].End {
				if iv.End > s.Outages[n-1].End {
					s.Outages[n-1].End = iv.End
				}
				continue
			}
			s.Outages = append(s.Outages, iv)
		}
	}
	sort.Slice(s.Outages, func(a, b int) bool {
		if s.Outages[a].Start != s.Outages[b].Start {
			return s.Outages[a].Start < s.Outages[b].Start
		}
		return s.Outages[a].Link < s.Outages[b].Link
	})
	return s
}

// Events renders the schedule as the netsim failure-event list: one down
// event per outage start and one up event per repair that completes inside
// the horizon, time-sorted.
func (s *Schedule) Events() []netsim.FailureEvent {
	var evs []netsim.FailureEvent
	for _, o := range s.Outages {
		evs = append(evs, netsim.FailureEvent{Time: o.Start, Link: o.Link, Up: false})
		if o.End < s.Horizon {
			evs = append(evs, netsim.FailureEvent{Time: o.End, Link: o.Link, Up: true})
		}
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].Time < evs[b].Time })
	return evs
}

// DownAt returns the per-link down indicator at time t. Cost is one scan
// of the outage list; callers probing many monotonically increasing times
// should use a downSweep instead.
func (s *Schedule) DownAt(t float64) []bool {
	down := make([]bool, s.NumLinks)
	for _, o := range s.Outages {
		if o.Start <= t && t < o.End {
			down[o.Link] = true
		}
	}
	return down
}

// downSweep replays a schedule's events incrementally for monotonically
// increasing probe times — the linear-time replacement for repeated
// DownAt scans in the plan compiler and the availability walk.
type downSweep struct {
	events []netsim.FailureEvent
	idx    int
	down   []bool
}

func newDownSweep(s *Schedule) *downSweep {
	return &downSweep{events: s.Events(), down: make([]bool, s.NumLinks)}
}

// advance applies every event at or before t and returns the down-set.
// The slice is owned by the sweep and only valid until the next advance;
// t must not decrease across calls.
func (d *downSweep) advance(t float64) []bool {
	for d.idx < len(d.events) && d.events[d.idx].Time <= t {
		d.down[d.events[d.idx].Link] = !d.events[d.idx].Up
		d.idx++
	}
	return d.down
}

// Compress linearly rescales the schedule onto a shorter (or longer)
// horizon — a drill-time schedule replayed inside a simulation run —
// keeping outage order and overlap structure. A schedule without a
// positive horizon is returned as it is.
func (s *Schedule) Compress(horizon float64) *Schedule {
	if s.Horizon <= 0 {
		return s
	}
	f := horizon / s.Horizon
	out := &Schedule{Horizon: horizon, NumLinks: s.NumLinks}
	for _, o := range s.Outages {
		out.Outages = append(out.Outages, Outage{Link: o.Link, Start: o.Start * f, End: o.End * f})
	}
	return out
}

// Merge overlays two schedules over the same link list: a link is down in
// the result whenever it is down in either input — how a hardware outage
// timetable composes with a weather one. The horizon is the larger of the
// two.
func Merge(a, b *Schedule) (*Schedule, error) {
	if a.NumLinks != b.NumLinks {
		return nil, fmt.Errorf("resilience: merging schedules over %d and %d links", a.NumLinks, b.NumLinks)
	}
	perLink := make([][]Outage, a.NumLinks)
	for _, s := range []*Schedule{a, b} {
		for _, o := range s.Outages {
			perLink[o.Link] = append(perLink[o.Link], o)
		}
	}
	return scheduleFromPerLink(perLink, a.NumLinks, math.Max(a.Horizon, b.Horizon)), nil
}

// Remap projects the schedule onto a different link list: outage link
// indices are rewritten through mapLink, and outages mapped to a negative
// index are dropped. This is how a schedule drawn over a hybrid topology
// (microwave prefix + fiber suffix) restricts to a fiber-only baseline
// whose link list is the suffix alone — microwave outages vanish, conduit
// cuts keep biting.
func (s *Schedule) Remap(nLinks int, mapLink func(int) int) *Schedule {
	perLink := make([][]Outage, nLinks)
	for _, o := range s.Outages {
		li := mapLink(o.Link)
		if li >= 0 && li < nLinks {
			perLink[li] = append(perLink[li], Outage{Link: li, Start: o.Start, End: o.End})
		}
	}
	return scheduleFromPerLink(perLink, nLinks, s.Horizon)
}

// WeatherSchedule bridges the weather interval schedule into the failure
// engine: conds[k][li] grades link li during the k-th interval of
// intervalSec seconds (the shape internal/weather's year analysis and
// StormConditions produce), and a link is out while its worst hop exceeds
// the fade margin (LinkCondition.Failed). Links beyond the graded prefix —
// fiber conduits ride behind the microwave list — are never failed.
// Compose the result with a hardware schedule via Merge.
func WeatherSchedule(conds [][]weather.LinkCondition, intervalSec float64, nLinks int) *Schedule {
	perLink := make([][]Outage, nLinks)
	for k, cs := range conds {
		start, end := float64(k)*intervalSec, float64(k+1)*intervalSec
		for li, c := range cs {
			if li < nLinks && c.Failed {
				perLink[li] = append(perLink[li], Outage{Link: li, Start: start, End: end})
			}
		}
	}
	return scheduleFromPerLink(perLink, nLinks, float64(len(conds))*intervalSec)
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// LinkElements models independent per-link hardware failure: one element
// per link, identical MTBF/MTTR. Covers fiber conduits as well as
// microwave links if given the full list.
func LinkElements(nLinks int, mtbf, mttr units.Seconds) []Element {
	els := make([]Element, nLinks)
	for i := range els {
		els[i] = Element{Name: fmt.Sprintf("link-%d", i), Links: []int{i}, MTBF: mtbf, MTTR: mttr}
	}
	return els
}

// TowerElements models microwave-relay hardware failure: a link carried by
// more towers fails more often, so each link's element gets MTBF =
// perTowerMTBF / towers, with the tower count estimated from the link's
// propagation distance (PropDelay × c) at hopSpacing per relay hop (the
// paper's ~100 km spacing). mwLinks must be the microwave prefix of the
// topology's link list — element link indices are positional.
func TowerElements(mwLinks []netsim.TopoLink, hopSpacing units.Meters, perTowerMTBF, mttr units.Seconds) []Element {
	els := make([]Element, len(mwLinks))
	for i, l := range mwLinks {
		towers := int(math.Ceil(float64(l.PropDelay) * geo.C / float64(hopSpacing)))
		if towers < 1 {
			towers = 1
		}
		els[i] = Element{
			Name:  fmt.Sprintf("mw-%d(%d towers)", i, towers),
			Links: []int{i},
			MTBF:  units.Seconds(float64(perTowerMTBF) / float64(towers)),
			MTTR:  mttr,
		}
	}
	return els
}

// CityElements models whole-site outages — power loss, a city offline:
// one element per listed node, covering every topology link incident to
// it. Pass only real sites (not fiber midpoint transit nodes).
func CityElements(links []netsim.TopoLink, cities []int, mtbf, mttr units.Seconds) []Element {
	els := make([]Element, 0, len(cities))
	for _, v := range cities {
		var covered []int
		for li, l := range links {
			if l.A == v || l.B == v {
				covered = append(covered, li)
			}
		}
		if len(covered) == 0 {
			continue
		}
		els = append(els, Element{
			Name:  fmt.Sprintf("city-%d", v),
			Links: covered,
			MTBF:  mtbf,
			MTTR:  mttr,
		})
	}
	return els
}
