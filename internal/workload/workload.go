// Package workload is the population-driven scenario layer: it turns the
// city populations the backbone was designed over (internal/cities) into
// millions of concurrently active users, composes their demand from
// per-application profiles grounded in the paper's application studies
// (internal/gaming, internal/webpage, internal/econ), and compiles the
// result into the traffic matrices, commodity lists, and timed failure
// schedules both simulation engines replay.
//
// The layer has three stages. ActiveUsers draws the concurrently active
// population per site at a UTC instant — each city follows the same
// diurnal activity curve shifted by its solar timezone, which is what
// staggers the coasts. Compile turns a scenario Spec (an evening snapshot,
// a flash crowd, a regional disaster with a storm and a conduit cut, a CDN
// replica placement) into per-application demand matrices over a Backbone
// substrate plus an optional failure Schedule. Pipeline then runs the
// compiled scenario end to end — TE splits on the hybrid backbone versus
// shortest-path routing on a fiber-only baseline, fast-reroute plans when
// failures are scheduled, both netsim engines — and reports the
// user-visible deltas: per-application FCT percentiles, propagation RTT,
// availability nines, and the §7/§8 quality-of-experience translations.
// Everything is seed-deterministic and bit-identical at every parallelism
// level. See DESIGN.md §10.
package workload

import (
	"math"

	"cisp/internal/cities"
	"cisp/internal/econ"
	"cisp/internal/netsim"
	"cisp/internal/units"
	"cisp/internal/webpage"
)

// App is an application class of the workload mix.
type App int

// The modeled application classes, in fixed report order.
const (
	Gaming App = iota // interactive gaming: thin, latency-critical flows
	Media             // video streaming: bulk segment transfers
	Web               // web browsing: short request bursts
	NumApps
)

func (a App) String() string {
	switch a {
	case Gaming:
		return "gaming"
	case Media:
		return "media"
	case Web:
		return "web"
	}
	return "unknown"
}

// AppProfile is one application class's per-user demand model.
type AppProfile struct {
	// Share is the fraction of concurrently active users on this class;
	// a mix's shares should sum to 1.
	Share float64

	// RateBps is the mean offered rate per active user of this class.
	RateBps float64

	// FlowBytes is the replay payload per flow — how the class appears to
	// the transport: thin gaming exchanges, bulk media segments, mid-size
	// web bursts. Installed per commodity via netsim.Commodity.FlowBytes.
	FlowBytes int
}

// AppMix is a full application mix, indexed by App.
type AppMix [NumApps]AppProfile

// Valid reports whether every class has a positive rate and payload —
// the zero AppMix is invalid and callers substitute DefaultMix.
func (m AppMix) Valid() bool {
	for _, p := range m {
		if p.RateBps <= 0 || p.FlowBytes <= 0 || p.Share < 0 {
			return false
		}
	}
	return true
}

// DefaultMix derives the default application mix from the seed packages'
// application studies:
//
//   - gaming: the §6.6 Steam arithmetic's 10 Kbps per player
//     (econ.GamingAggregateGbps with one player), 16 KB exchanges;
//   - media: a 4 Mbps HD stream delivered in 2 MB segments;
//   - web: the mean page weight of the webpage corpus spread over a
//     30-second think time (one page load per think), 128 KB bursts.
//
// Shares model an evening residential mix: half the active users
// browsing, a third streaming, the rest gaming.
func DefaultMix() AppMix {
	// econ.GamingAggregateGbps(players, share, rateKbps) in Gbps; one
	// player at the paper's 10 Kbps.
	gamingBps := float64(units.Gbps(econ.GamingAggregateGbps(1, 1, 10)))

	pages := webpage.Corpus(webpage.CorpusConfig{Seed: 1, Pages: 40})
	var pageBytes float64
	for _, p := range pages {
		for _, o := range p.Objects {
			pageBytes += float64(o.Size)
		}
	}
	pageBytes /= float64(len(pages))
	const thinkSeconds = 30.0
	webBps := pageBytes * 8 / thinkSeconds

	var m AppMix
	m[Gaming] = AppProfile{Share: 0.15, RateBps: gamingBps, FlowBytes: 16 << 10}
	m[Media] = AppProfile{Share: 0.35, RateBps: 4e6, FlowBytes: 2 << 20}
	m[Web] = AppProfile{Share: 0.50, RateBps: webBps, FlowBytes: 128 << 10}
	return m
}

// activityTable is the diurnal activity curve: the fraction of subscribers
// concurrently active at each local hour, peaking in the evening and
// bottoming out before dawn. Values are interpolated linearly and the
// curve wraps at midnight.
var activityTable = [24]float64{
	0.55, 0.40, 0.30, 0.22, 0.18, 0.20, // 00-05: overnight trough
	0.30, 0.45, 0.60, 0.70, 0.75, 0.78, // 06-11: morning ramp
	0.80, 0.80, 0.78, 0.78, 0.80, 0.85, // 12-17: daytime plateau
	0.90, 0.95, 1.00, 1.00, 0.90, 0.70, // 18-23: evening peak
}

// Activity returns the diurnal activity fraction at a local hour
// (fractional hours welcome; the curve wraps at 24).
func Activity(localHour float64) float64 {
	h := math.Mod(localHour, 24)
	if h < 0 {
		h += 24
	}
	lo := int(h)
	frac := h - float64(lo)
	hi := (lo + 1) % 24
	return activityTable[lo]*(1-frac) + activityTable[hi]*frac
}

// ActiveUsers returns the concurrently active users per site at a UTC
// instant: Population × penetration × Activity at the site's solar local
// hour (cities.TZOffsetHours). Data-center sites (zero population)
// contribute no users. This is the timezone stagger: at 00:00 UTC the US
// east coast is deep in its evening peak while the west coast is still
// ramping.
func ActiveUsers(sites []cities.City, penetration, utcHour float64) []float64 {
	users := make([]float64, len(sites))
	for i, c := range sites {
		if c.Population == 0 {
			continue
		}
		users[i] = float64(c.Population) * penetration * Activity(utcHour+cities.TZOffsetHours(c))
	}
	return users
}

// Backbone aliases netsim.Backbone, kept because the benchmark module names it.
type Backbone = netsim.Backbone
