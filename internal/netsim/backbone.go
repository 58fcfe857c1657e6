package netsim

import (
	"fmt"

	"cisp/internal/cities"
	"cisp/internal/units"
)

// Backbone is the hybrid cISP substrate: the microwave links (weather-
// gradable, endpoints indexing Sites) and the fiber conduit graph (rain-
// proof, with midpoint transit nodes — which is why Nodes can exceed
// len(Sites) — so a conduit parallel to a microwave link is a distinct
// path). The microwave-first ordering of Links is the contract weather
// grading, failure schedules, te.Controller positional updates and
// workload remapping rely on.
type Backbone struct {
	Sites []cities.City
	Nodes int        // sites plus fiber midpoint transit nodes
	Mw    []TopoLink // microwave links; A/B index Sites
	Fiber []TopoLink // fiber conduits, incl. midpoint halves
}

// Links returns the combined simulation link list, microwave first.
func (b *Backbone) Links() []TopoLink {
	return append(append([]TopoLink(nil), b.Mw...), b.Fiber...)
}

// Graded returns links at their current rates, in dst's storage when its
// capacity holds them: rate i is scaled by frac[i] for i < len(frac) (the
// fade fractions of the microwave prefix), then zeroed where down[i].
// Positions are kept, so the result updates a te.Controller built over
// links. The inputs are not modified.
func Graded(dst, links []TopoLink, frac []float64, down []bool) []TopoLink {
	if cap(dst) < len(links) {
		dst = make([]TopoLink, len(links))
	}
	dst = dst[:len(links)]
	copy(dst, links)
	for i, f := range frac {
		dst[i].RateBps = units.BitsPerSecond(float64(dst[i].RateBps) * f)
	}
	for i, d := range down {
		if d {
			dst[i].RateBps = 0
		}
	}
	return dst
}

// Live returns the links with a positive rate, in order: simulation
// engines have no use for a 0 bps link, and shortest-path routing must not
// ride one.
func Live(links []TopoLink) []TopoLink {
	var out []TopoLink
	for _, l := range links {
		if l.RateBps > 0 {
			out = append(out, l)
		}
	}
	return out
}

// Validate checks the structural contract consumers index by: a non-nil
// backbone, at least one node per site, and microwave endpoints that are
// sites rather than fiber transit nodes.
func (b *Backbone) Validate() error {
	if b == nil {
		return fmt.Errorf("netsim: nil backbone")
	}
	if b.Nodes < len(b.Sites) {
		return fmt.Errorf("netsim: %d nodes < %d sites", b.Nodes, len(b.Sites))
	}
	for li, l := range b.Mw {
		if l.A < 0 || l.A >= len(b.Sites) || l.B < 0 || l.B >= len(b.Sites) {
			return fmt.Errorf("netsim: microwave link %d endpoints %d-%d outside site range [0,%d)", li, l.A, l.B, len(b.Sites))
		}
	}
	return nil
}
