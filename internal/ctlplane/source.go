package ctlplane

import (
	"sort"

	"cisp/internal/geo"
	"cisp/internal/resilience"
	"cisp/internal/units"
	"cisp/internal/weather"
)

// StreamConfig parameterizes a seeded event stream. The zero value gets
// sensible defaults: half-hour fade re-evaluation, six-month link MTBF,
// four-hour MTTR. Fades are graded at weather.LinkGeometry's default radio
// frequency and fade margin.
type StreamConfig struct {
	Seed        int64
	Horizon     float64 // modeled seconds covered by the stream
	StepSeconds float64 // fade re-evaluation cadence; default 1800

	MTBF, MTTR units.Seconds // hardware lifetime draws; defaults below
}

// Stream defaults, applied by DrawStream for zero fields.
const (
	defaultStreamStep float64       = 1800            // half-hour weather intervals
	defaultStreamMTBF units.Seconds = 180 * 24 * 3600 // six months between hard failures
	defaultStreamMTTR units.Seconds = 4 * 3600        // four-hour repairs
)

// DrawStream renders a deterministic control-event timeline for a
// backbone: hardware fail/repair transitions drawn from the resilience
// lifetime model, interleaved with microwave fade gradings sampled from
// the seeded regional rain field every StepSeconds. Fade events are
// emitted only when a link's graded fraction changes, so a calm stream is
// short. The result is sorted by (time, type, link) and is a pure
// function of (backbone, config) — the replay substrate for the soak
// test and cmd/cispd's demo mode.
func DrawStream(b *Backbone, cfg StreamConfig) []TimedEvent {
	if cfg.StepSeconds <= 0 {
		cfg.StepSeconds = defaultStreamStep
	}
	if cfg.MTBF <= 0 {
		cfg.MTBF = defaultStreamMTBF
	}
	if cfg.MTTR <= 0 {
		cfg.MTTR = defaultStreamMTTR
	}

	var out []TimedEvent

	// Hardware transitions over the hybrid link list.
	nLinks := len(b.Mw) + len(b.Fiber)
	els := resilience.LinkElements(nLinks, cfg.MTBF, cfg.MTTR)
	sched := resilience.DrawSchedule(els, nLinks, cfg.Horizon, cfg.Seed)
	for _, fe := range sched.Events() {
		typ := EventFail
		if fe.Up {
			typ = EventRepair
		}
		out = append(out, TimedEvent{At: fe.Time, Ev: Event{Type: typ, Link: fe.Link}})
	}

	// Weather gradings over the microwave prefix: sample the rain field at
	// each step and emit a fade only when the graded fraction moves.
	pts := make([]geo.Point, len(b.Sites))
	for i, c := range b.Sites {
		pts[i] = c.Loc
	}
	gen := weather.NewRegionGenerator(cfg.Seed, pts)
	geom := weather.NewBackboneGeometry(b)
	var conds []weather.LinkCondition
	last := make([]float64, len(b.Mw))
	for i := range last {
		last[i] = 1
	}
	for t := cfg.StepSeconds; t < cfg.Horizon; t += cfg.StepSeconds {
		day := int(t / 86400)
		interval := int(t/1800) % 48
		conds = geom.Conditions(gen.FieldAt(day, interval), conds)
		for li, cond := range conds {
			if cond.CapFrac != last[li] {
				last[li] = cond.CapFrac
				out = append(out, TimedEvent{At: t, Ev: Event{Type: EventFade, Link: li, CapFrac: cond.CapFrac}})
			}
		}
	}

	sort.SliceStable(out, func(a, b int) bool {
		if out[a].At != out[b].At {
			return out[a].At < out[b].At
		}
		if out[a].Ev.Type != out[b].Ev.Type {
			return out[a].Ev.Type < out[b].Ev.Type
		}
		return out[a].Ev.Link < out[b].Ev.Link
	})
	return out
}
