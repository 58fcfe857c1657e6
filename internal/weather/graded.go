package weather

import (
	"cisp/internal/design"
	"cisp/internal/geo"
	"cisp/internal/linkbuild"
	"cisp/internal/netsim"
	"cisp/internal/units"
)

// attenStep is the great-circle sampling step for per-hop path
// attenuation.
const attenStep units.Meters = 2000

// LinkCondition is the graded state of one built city-city link during a
// precipitation interval. A link is a series of tower-tower hops; the hop
// radios adapt their modulation independently, and the link runs at the
// rate of its worst hop.
type LinkCondition struct {
	CapFrac float64 // adaptive-modulation capacity fraction (0 = outage)
	Failed  bool    // worst hop exceeded the fade margin (binary model)
}

// LinkGeometry caches the physical tower-hop endpoints of every built link
// of a topology, so per-interval condition evaluation touches no registry
// state. Immutable after construction; safe for concurrent use.
type LinkGeometry struct {
	hops [][][2]geo.Point // per built link, per hop: endpoint coordinates
}

// NewLinkGeometry extracts hop geometry for every built link of top from
// the Step-1 link structure.
func NewLinkGeometry(top *design.Topology, links *linkbuild.Links) *LinkGeometry {
	lg := &LinkGeometry{hops: make([][][2]geo.Point, len(top.Built))}
	for li, l := range top.Built {
		for _, h := range links.Hops(l.I, l.J) {
			lg.hops[li] = append(lg.hops[li], [2]geo.Point{
				links.Reg.Tower(h[0]).Loc,
				links.Reg.Tower(h[1]).Loc,
			})
		}
	}
	return lg
}

// NewBackboneGeometry treats each microwave link of a simulation backbone
// as one site-to-site hop, in b.Mw order: the city-level grading of the
// TE rain study, the disaster drill and the control-plane event stream,
// which model no towers between the sites.
func NewBackboneGeometry(b *netsim.Backbone) *LinkGeometry {
	lg := &LinkGeometry{hops: make([][][2]geo.Point, len(b.Mw))}
	for li, l := range b.Mw {
		lg.hops[li] = [][2]geo.Point{{b.Sites[l.A].Loc, b.Sites[l.B].Loc}}
	}
	return lg
}

// NumLinks returns the number of built links covered.
func (lg *LinkGeometry) NumLinks() int { return len(lg.hops) }

// Conditions evaluates every link's graded state under the precipitation
// field at the default carrier (geo.DefaultFrequencyGHz) and fade margin
// (DefaultFadeMargin): the adaptive-modulation capacity fraction and the
// paper's binary failure verdict, both set by the link's worst-attenuated
// hop. The out slice is reused when it has the right length (pass nil to
// allocate).
func (lg *LinkGeometry) Conditions(f *Field, out []LinkCondition) []LinkCondition {
	if len(out) != len(lg.hops) {
		out = make([]LinkCondition, len(lg.hops))
	}
	for li, hops := range lg.hops {
		worst := units.DB(0)
		for _, h := range hops {
			if a := f.PathAttenuation(h[0], h[1], geo.DefaultFrequencyGHz, attenStep); a > worst {
				worst = a
			}
		}
		out[li] = LinkCondition{
			CapFrac: CapacityFraction(worst, DefaultFadeMargin),
			Failed:  worst > DefaultFadeMargin,
		}
	}
	return out
}

// Fractions returns each link's capacity fraction, the frac argument of
// netsim.Graded: its CapFrac, or 0 where Failed.
func Fractions(conds []LinkCondition) []float64 {
	out := make([]float64, len(conds))
	for i, c := range conds {
		if !c.Failed {
			out[i] = c.CapFrac
		}
	}
	return out
}
