package workload

import (
	"fmt"
	"math"

	"cisp/internal/cities"
	"cisp/internal/geo"
	"cisp/internal/netsim"
	"cisp/internal/resilience"
	"cisp/internal/traffic"
	"cisp/internal/units"
	"cisp/internal/weather"
)

// Kind selects a scenario archetype.
type Kind int

// The scenario archetypes.
const (
	// Diurnal is a plain population snapshot: the timezone-staggered
	// activity curve at the spec's UTC hour, demand flowing to the
	// default sinks.
	Diurnal Kind = iota

	// FlashCrowd models a live event at EventSite: every site's media
	// demand redirects to the event origin and scales by eight —
	// the whole country tuning into one stream with no CDN absorbing it.
	FlashCrowd

	// Disaster models a regional emergency at EventSite: activity of
	// every site within 300 km surges threefold (everyone checking
	// in at once) while a convective storm parks over the epicenter and a
	// nearby fiber conduit is cut — the compound failure schedule PR 5's
	// resilience layer exists for.
	Disaster

	// CDNPlacement places SinkCount replicas by greedy weighted k-median
	// over the active-user distribution and serves the client-server
	// classes from them instead of the default data-center sinks.
	CDNPlacement
)

func (k Kind) String() string {
	switch k {
	case Diurnal:
		return "diurnal"
	case FlashCrowd:
		return "flashcrowd"
	case Disaster:
		return "disaster"
	case CDNPlacement:
		return "cdn"
	}
	return "unknown"
}

// Disaster drill timing: the compiled schedule spans an hour of real time
// — storm intervals of drillIntervalSec bracketed by clear sky, with the
// conduit cut overlapping the storm — and the Pipeline compresses it into
// the replay horizon while the availability walk uses the real durations.
const (
	drillIntervalSec = 900.0
	drillIntervals   = 4
	drillHorizonSec  = drillIntervalSec * drillIntervals
	cutStartSec      = 1200.0
	cutEndSec        = 3000.0
)

// The population snapshot every scenario draws: penetration is the
// subscriber fraction of each city's population, and snapshotUTCHour is
// the demand instant — 00:00 UTC is 19:00 on the US east coast, the
// evening peak sweeping westward.
const (
	penetration     = 0.6
	snapshotUTCHour = 0
)

// Event scenarios scale their focused demand: a flash crowd's media load
// by flashCrowdSurge, and activity within disasterRadius of a disaster's
// epicenter by disasterSurge. disasterRadius is also the storm cell's
// radius.
const (
	flashCrowdSurge              = 8
	disasterSurge                = 3
	disasterRadius  units.Meters = 300e3
)

// Spec describes one scenario. The zero value of every field is a usable
// default: the most populous site as the event focus (site 0 — Coalesce
// sorts by descending population), the default mix and four CDN replicas.
type Spec struct {
	Name string
	Kind Kind

	// Mix is the application mix; an invalid (e.g. zero) mix means
	// DefaultMix.
	Mix AppMix

	// Seed drives the scenario's deterministic draws.
	Seed int64

	// EventSite focuses FlashCrowd and Disaster scenarios. Default 0,
	// the most populous site.
	EventSite int

	// SinkCount is how many replicas CDNPlacement places. Default 4.
	SinkCount int
}

func (s Spec) withDefaults() Spec {
	if !s.Mix.Valid() {
		s.Mix = DefaultMix()
	}
	if s.SinkCount <= 0 {
		s.SinkCount = 4
	}
	if s.Name == "" {
		s.Name = s.Kind.String()
	}
	return s
}

// Compiled is a scenario lowered onto a Backbone: the active-user vector,
// the per-application absolute demand matrices, the serving sinks, and —
// for Disaster — the compound failure schedule over the hybrid link list.
type Compiled struct {
	Spec     Spec
	Backbone *Backbone

	Users      []float64 // concurrently active users per site
	TotalUsers float64
	Sinks      []int // serving sites of the client-server classes

	PerApp      [NumApps]traffic.Matrix // absolute bps
	OfferedGbps float64                 // Σ over apps and pairs

	// Schedule is the failure timetable over the hybrid link list
	// (microwave prefix, fiber suffix), in drill time; nil when the
	// scenario has no failures. StormFadedLinks and CutLink summarise it.
	Schedule        *resilience.Schedule
	StormFadedLinks int
	CutLink         int // hybrid link index of the cut conduit, -1 if none
}

// Compile lowers a scenario spec onto a backbone substrate. It is pure
// and deterministic: same spec and backbone, same compiled scenario.
func Compile(spec Spec, b *Backbone) (*Compiled, error) {
	spec = spec.withDefaults()
	n := len(b.Sites)
	if n == 0 {
		return nil, fmt.Errorf("workload: backbone has no sites")
	}
	if spec.EventSite < 0 || spec.EventSite >= n {
		return nil, fmt.Errorf("workload: event site %d outside %d sites", spec.EventSite, n)
	}
	c := &Compiled{Spec: spec, Backbone: b, CutLink: -1}

	c.Users = ActiveUsers(b.Sites, penetration, snapshotUTCHour)
	if spec.Kind == Disaster {
		epi := b.Sites[spec.EventSite].Loc
		for i, s := range b.Sites {
			if s.Loc.DistanceTo(epi) <= disasterRadius {
				c.Users[i] *= disasterSurge
			}
		}
	}
	for _, u := range c.Users {
		c.TotalUsers += u
	}
	if c.TotalUsers <= 0 {
		return nil, fmt.Errorf("workload: no active users (all sites zero-population?)")
	}

	// Serving sinks: the substrate's data centers, unless the scenario
	// places its own replicas (or the substrate has no DC sites).
	c.Sinks = cities.DataCenterIdx(b.Sites)
	if spec.Kind == CDNPlacement || len(c.Sinks) == 0 {
		c.Sinks = PlaceSinks(b.Sites, c.Users, spec.SinkCount)
	}

	// Per-application demand. Gaming and media are client-server: each
	// site's aggregate user rate flows to its nearest sink. Web is mostly
	// client-server with a gravity-model tail (peer links, federated
	// services): 70% to the nearest sink, 30% population-gravity.
	weightsOf := func(a App) []float64 {
		w := make([]float64, n)
		p := spec.Mix[a]
		for i, u := range c.Users {
			w[i] = u * p.Share * p.RateBps
		}
		return w
	}
	gw := weightsOf(Gaming)
	c.PerApp[Gaming] = traffic.WeightedNearest(b.Sites, gw, c.Sinks)

	mw := weightsOf(Media)
	if spec.Kind == FlashCrowd {
		// The live event: every site pulls the stream straight from the
		// origin, at flashCrowdSurge times the usual media load.
		for i := range mw {
			mw[i] *= flashCrowdSurge
		}
		c.PerApp[Media] = traffic.WeightedNearest(b.Sites, mw, []int{spec.EventSite})
	} else {
		c.PerApp[Media] = traffic.WeightedNearest(b.Sites, mw, c.Sinks)
	}

	ww := weightsOf(Web)
	var webTotal float64
	for _, w := range ww {
		webTotal += w
	}
	c.PerApp[Web] = traffic.Mix([]float64{0.7 * webTotal, 0.3 * webTotal},
		traffic.WeightedNearest(b.Sites, ww, c.Sinks), traffic.Gravity(ww))

	for _, m := range c.PerApp {
		c.OfferedGbps += units.BitsPerSecond(m.Total()).Gbps()
	}

	if spec.Kind == Disaster {
		if err := c.compileDisasterSchedule(spec, b); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// compileDisasterSchedule builds the compound failure timetable: a storm
// cell over the epicenter fading microwave links for the middle two drill
// intervals, merged with a cut of the fiber conduit nearest the epicenter.
func (c *Compiled) compileDisasterSchedule(spec Spec, b *Backbone) error {
	epi := b.Sites[spec.EventSite].Loc
	field := &weather.Field{Cells: []weather.StormCell{{
		Center: epi,
		Radius: disasterRadius,
		PeakMM: 40,
	}}}
	conds := weather.NewBackboneGeometry(b).Conditions(field, nil)
	for _, cond := range conds {
		if cond.Failed {
			c.StormFadedLinks++
		}
	}
	nHybrid := len(b.Mw) + len(b.Fiber)
	intervals := make([][]weather.LinkCondition, drillIntervals)
	intervals[1], intervals[2] = conds, conds
	storm := resilience.WeatherSchedule(intervals, drillIntervalSec, nHybrid)

	// The conduit cut: the fiber link between real sites (not midpoint
	// transit halves) whose midpoint lies closest to the epicenter.
	nSites := len(b.Sites)
	bestFi, bestD := -1, units.Meters(math.Inf(1))
	for fi, l := range b.Fiber {
		if l.A >= nSites || l.B >= nSites {
			continue
		}
		a, bb := b.Sites[l.A].Loc, b.Sites[l.B].Loc
		mid := geo.Point{Lat: (a.Lat + bb.Lat) / 2, Lon: (a.Lon + bb.Lon) / 2}
		if d := mid.DistanceTo(epi); d < bestD {
			bestFi, bestD = fi, d
		}
	}
	sched := storm
	if bestFi >= 0 {
		c.CutLink = len(b.Mw) + bestFi
		cut := &resilience.Schedule{
			Horizon:  drillHorizonSec,
			NumLinks: nHybrid,
			Outages:  []resilience.Outage{{Link: c.CutLink, Start: cutStartSec, End: cutEndSec}},
		}
		var err error
		if sched, err = resilience.Merge(storm, cut); err != nil {
			return err
		}
	}
	c.Schedule = sched
	return nil
}

// Commodities converts the compiled demand into the commodity list of a
// Scenario replay, with totalFlows concurrent flows apportioned first
// across applications in proportion to demand-bytes over payload (so a
// class of thin flows gets many flows per offered bit) and then across
// each application's positive pairs by netsim.DemandCommodities. Each
// commodity carries its application's FlowBytes payload and a Demand
// equal to the load the replay actually offers (count · payload · 8 /
// window), so the TE planner optimises against the injected traffic.
//
// Flow IDs are assigned by application order then row-major pair order
// over ALL positive pairs — independent of totalFlows — so IDs are stable
// between a clamped packet replay and a full-scale fluid replay and the
// returned appOf map is valid for both. Deterministic in the compiled
// scenario and arguments.
func (c *Compiled) Commodities(totalFlows int, window float64) (comms []netsim.Commodity, appOf map[int]App) {
	appOf = make(map[int]App)
	if totalFlows <= 0 || window <= 0 {
		return nil, appOf
	}
	// Apportion flows across applications: quota_a ∝ demand_a / payload_a.
	loads := make([]float64, NumApps)
	for a := App(0); a < NumApps; a++ {
		loads[a] = c.PerApp[a].Total() / float64(c.Spec.Mix[a].FlowBytes)
	}
	flowsFor := traffic.Apportion(totalFlows, loads)

	last := 0
	for a := App(0); a < NumApps; a++ {
		first := last + 1
		var appComms []netsim.Commodity
		appComms, last = netsim.DemandCommodities(c.PerApp[a], flowsFor[a], c.Spec.Mix[a].FlowBytes, units.Seconds(window), first)
		for flow := first; flow <= last; flow++ {
			appOf[flow] = a
		}
		comms = append(comms, appComms...)
	}
	return comms, appOf
}
