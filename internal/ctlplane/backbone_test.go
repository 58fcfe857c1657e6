package ctlplane

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"cisp/internal/cities"
	"cisp/internal/geo"
	"cisp/internal/netsim"
)

func fourSites() []cities.City {
	return []cities.City{
		{Name: "A", Loc: geo.Point{Lat: 40, Lon: -75}, Population: 8_000_000},
		{Name: "B", Loc: geo.Point{Lat: 41, Lon: -85}, Population: 4_000_000},
		{Name: "C", Loc: geo.Point{Lat: 39, Lon: -95}, Population: 2_000_000},
		{Name: "DC", Loc: geo.Point{Lat: 38, Lon: -90}, Population: 0},
	}
}

func TestSyntheticBackboneShape(t *testing.T) {
	b := SyntheticBackbone(fourSites(), 2, 10, 40)
	if err := b.Validate(); err != nil {
		t.Fatalf("synthetic backbone invalid: %v", err)
	}
	if len(b.Mw) == 0 || len(b.Fiber) != 2*len(b.Mw) {
		t.Fatalf("got %d microwave and %d fiber links, want fiber = 2×mw conduit halves", len(b.Mw), len(b.Fiber))
	}
	if want := len(b.Sites) + len(b.Mw); b.Nodes != want {
		t.Fatalf("Nodes = %d, want %d (sites + one transit node per conduit)", b.Nodes, want)
	}
	hybrid := b.Links()
	if len(hybrid) != len(b.Mw)+len(b.Fiber) {
		t.Fatalf("Links length %d, want %d", len(hybrid), len(b.Mw)+len(b.Fiber))
	}
	for i, l := range hybrid[:len(b.Mw)] {
		if l != b.Mw[i] {
			t.Fatalf("Links()[%d] != Mw[%d]: microwave prefix ordering broken", i, i)
		}
	}
	// Fiber conduits must run ~1.5× the microwave propagation delay.
	for i, mw := range b.Mw {
		fiber := float64(b.Fiber[2*i].PropDelay + b.Fiber[2*i+1].PropDelay)
		if ratio := fiber / float64(mw.PropDelay); math.Abs(ratio-1.5) > 1e-9 {
			t.Fatalf("conduit %d delay ratio %v, want 1.5", i, ratio)
		}
	}
	// Determinism: same inputs, same backbone.
	if again := SyntheticBackbone(fourSites(), 2, 10, 40); !reflect.DeepEqual(b, again) {
		t.Fatalf("SyntheticBackbone is not deterministic")
	}
}

// TestNewRejectsMalformedBackbone: New must refuse a backbone that breaks
// the structural contract, or a rate or demand TE cannot solve over,
// before it builds anything over it, and the error must name the value.
func TestNewRejectsMalformedBackbone(t *testing.T) {
	midpointMw := SyntheticBackbone(fourSites(), 2, 10, 40)
	midpointMw.Mw[0].B = midpointMw.Nodes - 1 // the last conduit's midpoint
	comms := GravityCommodities(fourSites(), 20)
	type tc struct {
		name  string
		b     *Backbone
		comms []netsim.Commodity
		want  string // in the error; "" takes any
	}
	cases := []tc{
		{"nil", nil, comms, ""},
		{"nodes below sites", &Backbone{Sites: fourSites(), Nodes: 3}, comms, ""},
		{"microwave on a fiber midpoint", midpointMw, comms, ""},
	}
	for _, v := range []float64{-5, math.NaN(), math.Inf(1)} {
		cases = append(cases,
			tc{fmt.Sprintf("microwave rate %v", v), SyntheticBackbone(fourSites(), 2, v, 40), comms, "has rate"},
			tc{fmt.Sprintf("fiber rate %v", v), SyntheticBackbone(fourSites(), 2, 10, v), comms, "has rate"},
			tc{fmt.Sprintf("demand %v", v), SyntheticBackbone(fourSites(), 2, 10, 40), GravityCommodities(fourSites(), v), "has demand"})
	}
	for _, tc := range cases {
		d, err := New(Config{Backbone: tc.b, Comms: tc.comms})
		if err == nil {
			d.Close()
			t.Errorf("%s: New accepted it", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: New error %q, want one naming %q", tc.name, err, tc.want)
		}
	}
}

func TestGravityCommodities(t *testing.T) {
	sites := fourSites()
	comms := GravityCommodities(sites, 20)
	if len(comms) != 3 {
		t.Fatalf("got %d commodities, want 3 (pairs among the populated sites)", len(comms))
	}
	var total float64
	seen := map[int]bool{}
	for _, c := range comms {
		if c.Demand <= 0 {
			t.Fatalf("flow %d has non-positive demand %v", c.Flow, c.Demand)
		}
		if seen[c.Flow] {
			t.Fatalf("duplicate flow ID %d", c.Flow)
		}
		seen[c.Flow] = true
		if sites[c.Src].Population == 0 || sites[c.Dst].Population == 0 {
			t.Fatalf("flow %d touches the zero-population site", c.Flow)
		}
		total += float64(c.Demand)
	}
	if math.Abs(total-20e9) > 1 {
		t.Fatalf("total demand %v bps, want 20 Gbps", total)
	}
	// The largest-population pair must carry the most demand.
	if comms[0].Src != 0 || comms[0].Dst != 1 {
		t.Fatalf("first commodity is %d->%d, want 0->1", comms[0].Src, comms[0].Dst)
	}
	// All-zero populations yield no commodities rather than NaN shares.
	zero := []cities.City{{Name: "X"}, {Name: "Y"}}
	if got := GravityCommodities(zero, 20); got != nil {
		t.Fatalf("zero-population commodity list = %+v, want nil", got)
	}
}
