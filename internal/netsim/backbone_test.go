package netsim

import (
	"slices"
	"testing"

	"cisp/internal/units"
)

// gradedFixture is a five-link hybrid list: a two-link microwave prefix,
// then fiber, the last fiber link already at 0 bps.
func gradedFixture() []TopoLink {
	return []TopoLink{
		{A: 0, B: 1, RateBps: 10e9, PropDelay: 0.001, QueueCap: 10},
		{A: 1, B: 2, RateBps: 8e9, PropDelay: 0.002, QueueCap: 20},
		{A: 0, B: 3, RateBps: 40e9, PropDelay: 0.003, QueueCap: 30},
		{A: 3, B: 2, RateBps: 40e9, PropDelay: 0.004, QueueCap: 40},
		{A: 2, B: 4, RateBps: 0, PropDelay: 0.005, QueueCap: 50},
	}
}

func linkRates(links []TopoLink) []units.BitsPerSecond {
	out := make([]units.BitsPerSecond, len(links))
	for i, l := range links {
		out[i] = l.RateBps
	}
	return out
}

// TestGraded: the fade prefix scales, the down-set zeroes (a scaled link,
// an unscaled one and one already at 0 bps), every other field keeps its
// position, the inputs stay as they were, and a long enough dst is
// reused without allocating.
func TestGraded(t *testing.T) {
	frac := []float64{1, 0.25}
	down := []bool{true, false, true, false, true}
	cases := []struct {
		name string
		frac []float64
		down []bool
		want []units.BitsPerSecond
	}{
		{"fade and down-set", frac, down, []units.BitsPerSecond{0, 2e9, 0, 40e9, 0}},
		{"nil frac", nil, down, []units.BitsPerSecond{0, 8e9, 0, 40e9, 0}},
		{"nil down", frac, nil, []units.BitsPerSecond{10e9, 2e9, 40e9, 40e9, 0}},
		{"clear sky", nil, nil, []units.BitsPerSecond{10e9, 8e9, 40e9, 40e9, 0}},
	}
	for _, tc := range cases {
		for _, dst := range [][]TopoLink{nil, make([]TopoLink, 2), make([]TopoLink, 8)} {
			links := gradedFixture()
			fracIn, downIn := slices.Clone(tc.frac), slices.Clone(tc.down)
			got := Graded(dst, links, tc.frac, tc.down)
			if r := linkRates(got); !slices.Equal(r, tc.want) {
				t.Fatalf("%s (dst len %d): rates %v, want %v", tc.name, len(dst), r, tc.want)
			}
			for i, l := range got {
				l.RateBps = links[i].RateBps
				if l != links[i] {
					t.Fatalf("%s: link %d is %+v, want %+v at a new rate", tc.name, i, got[i], links[i])
				}
			}
			if !slices.Equal(links, gradedFixture()) || !slices.Equal(tc.frac, fracIn) || !slices.Equal(tc.down, downIn) {
				t.Fatalf("%s: Graded modified its inputs", tc.name)
			}
			wantReuse := cap(dst) >= len(links)
			if gotReuse := len(dst) > 0 && &got[0] == &dst[0]; gotReuse != wantReuse {
				t.Fatalf("%s: dst of len %d reused = %v, want %v", tc.name, len(dst), gotReuse, wantReuse)
			}
			if !wantReuse && slices.ContainsFunc(dst, func(l TopoLink) bool { return l != TopoLink{} }) {
				t.Fatalf("%s: Graded wrote into a dst too short to reuse", tc.name)
			}
		}
	}

	links := gradedFixture()
	dst := make([]TopoLink, len(links))
	if allocs := testing.AllocsPerRun(100, func() { dst = Graded(dst, links, frac, down) }); allocs != 0 {
		t.Fatalf("grading into a long enough dst allocates %.0f times, want 0", allocs)
	}
}

// TestLive: only positive-rate links survive, in their order, and the
// input stays as it was.
func TestLive(t *testing.T) {
	graded := Graded(nil, gradedFixture(), []float64{1, 0.25}, []bool{true, false, true})
	before := slices.Clone(graded)
	got := Live(graded)
	want := []TopoLink{graded[1], graded[3]}
	if !slices.Equal(got, want) {
		t.Fatalf("Live = %+v, want %+v", got, want)
	}
	if !slices.Equal(graded, before) {
		t.Fatal("Live modified its input")
	}
	clear := gradedFixture()
	if got := Live(clear); !slices.Equal(got, clear[:4]) {
		t.Fatalf("Live(clear sky) = %+v, want the four links with a rate, in order", got)
	}
	if got := Live(nil); len(got) != 0 {
		t.Fatalf("Live(nil) = %+v, want no links", got)
	}
}
