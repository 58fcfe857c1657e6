package netsim

import (
	"fmt"

	"cisp/internal/cities"
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
