package terrain

import (
	"math"
	"math/rand"
	"testing"

	"cisp/internal/geo"
)

// referenceUSBase is the US base surface as it was written before it
// became data.
func referenceUSBase(p geo.Point) float64 {
	switch {
	case p.Lon > -80: // eastern seaboard / piedmont
		return 100
	case p.Lon > -95: // interior lowlands
		return 150 + (-80-p.Lon)/15*150 // 150 → 300 m
	case p.Lon > -105: // Great Plains ramp
		return 300 + (-95-p.Lon)/10*1300 // 300 → 1600 m
	case p.Lon > -119: // intermountain plateau / Great Basin
		return 1400
	default: // Pacific coastal states beyond the Sierra/Cascade crest
		return 150
	}
}

// referenceEuropeBase is the European base surface as it was written
// before it became data.
func referenceEuropeBase(p geo.Point) float64 {
	switch {
	case p.Lat > 52: // North European Plain and Scandinavia lowlands
		return 60
	case p.Lat > 47: // central uplands
		return 250
	case p.Lat > 43: // alpine forelands / Iberia meseta
		return 400
	default:
		return 250
	}
}

// TestBaseMatchesReference holds the base profiles equal to the functions
// they replace, bit for bit, on a dense grid that includes every
// breakpoint and its neighbouring floats, and each profile's ceiling over
// random intervals at or above every grid value inside them.
func TestBaseMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name   string
		base   Base
		ref    func(geo.Point) float64
		lo, hi float64
	}{
		{"us", usBase, referenceUSBase, -135, -60},
		{"europe", europeBase, referenceEuropeBase, 30, 75},
	} {
		var grid []float64
		for x := tc.lo; x <= tc.hi; x += 0.01 {
			grid = append(grid, x)
		}
		for _, pc := range tc.base.Pieces {
			for _, x := range []float64{pc.Above, pc.X0} {
				grid = append(grid, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
			}
		}
		for _, x := range grid {
			p := geo.Point{Lat: 40, Lon: x}
			if tc.base.Lat {
				p = geo.Point{Lat: x, Lon: 10}
			}
			if got, want := tc.base.at(p), tc.ref(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s at %v: %v, reference %v", tc.name, x, got, want)
			}
		}
		rng := rand.New(rand.NewSource(1))
		for k := 0; k < 2000; k++ {
			lo := grid[rng.Intn(len(grid))]
			hi := lo + rng.Float64()*rng.Float64()*20
			if k%10 == 0 {
				hi = lo
			}
			ceil := tc.base.ceiling(lo, hi)
			for _, x := range grid {
				if x >= lo && x <= hi && tc.base.value(x) > ceil {
					t.Fatalf("%s over [%v, %v]: ceiling %v below %v at %v", tc.name, lo, hi, ceil, tc.base.value(x), x)
				}
			}
		}
	}
}

// bitsEqual reports whether two bounds are the same, every float bit for
// bit.
func bitsEqual(a, b Coarse) bool {
	fa := []float64{a.Lo, a.Hi, a.p.Lat, a.p.Lon, a.relief, a.noise}
	fb := []float64{b.Lo, b.Hi, b.p.Lat, b.p.Lon, b.relief, b.noise}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.octaves == b.octaves && a.exact == b.exact && a.clutter == b.clutter
}

// TestPatchMatchesModel holds a patch to the whole model over random
// boxes: at points inside a box, corners and edges included, Patch.Coarse
// equals Model.Coarse bit for bit; every Refine stage brackets
// SurfaceHeight and the last equals it; and the Ceiling is at or above
// it. The models are both presets, Flat, and one with a single-waypoint
// ridge, a crest ridge of negative height, no noise and negative clutter.
func TestPatchMatchesModel(t *testing.T) {
	odd := New(3, []Ridge{
		{Crest: []geo.Point{{Lat: 40, Lon: -100}}, Height: 900, Width: 30e3},
		{Crest: []geo.Point{{Lat: 38, Lon: -102}, {Lat: 41, Lon: -101}}, Height: -300, Width: 20e3},
	}, nil, 0, 0, -12)
	for _, tc := range []struct {
		name       string
		m          *Model
		lat0, lon0 float64
		dLat, dLon float64
	}{
		{"us", ContiguousUS(5), 25, -125, 24, 58},
		{"europe", Europe(5), 36, -10, 30, 40},
		{"flat", Flat(), 30, -110, 10, 10},
		{"odd", odd, 37, -103, 5, 5},
	} {
		rng := rand.New(rand.NewSource(2))
		culled := 0
		for k := 0; k < 1500; k++ {
			lo := geo.Point{Lat: tc.lat0 + rng.Float64()*tc.dLat, Lon: tc.lon0 + rng.Float64()*tc.dLon}
			size := 1.5 * rng.Float64()
			if k%50 == 0 {
				size = 8
			}
			hi := geo.Point{Lat: lo.Lat + size*rng.Float64(), Lon: lo.Lon + size*rng.Float64()}
			box := Box{Lo: lo, Hi: hi}
			pt := tc.m.Patch(box, nil)
			if len(pt.kept) < len(tc.m.segs) {
				culled++
			}
			for j := 0; j < 40; j++ {
				fx, fy := rng.Float64(), rng.Float64()
				switch j % 8 {
				case 0:
					fx, fy = 0, 0
				case 1:
					fx, fy = 1, 1
				case 2:
					fx = 0
				case 3:
					fy = 1
				}
				p := geo.Point{Lat: lo.Lat + fy*(hi.Lat-lo.Lat), Lon: lo.Lon + fx*(hi.Lon-lo.Lon)}
				p.Lat, p.Lon = min(max(p.Lat, lo.Lat), hi.Lat), min(max(p.Lon, lo.Lon), hi.Lon)
				c, want := pt.Coarse(p), tc.m.Coarse(p)
				if !bitsEqual(c, want) {
					t.Fatalf("%s box %v: Patch.Coarse(%v) = %+v, Model.Coarse %+v", tc.name, box, p, c, want)
				}
				s := tc.m.SurfaceHeight(p)
				if !(pt.Ceiling >= s) {
					t.Fatalf("%s box %v at %v: ceiling %v below surface %v", tc.name, box, p, pt.Ceiling, s)
				}
				for stage := 0; ; stage++ {
					if !(c.Lo <= s && s <= c.Hi) {
						t.Fatalf("%s at %v stage %d: surface %v outside [%v, %v]", tc.name, p, stage, s, c.Lo, c.Hi)
					}
					if c.exact {
						if math.Float64bits(c.Lo) != math.Float64bits(s) || math.Float64bits(c.Hi) != math.Float64bits(s) {
							t.Fatalf("%s at %v: exact bound [%v, %v], surface %v", tc.name, p, c.Lo, c.Hi, s)
						}
						break
					}
					if stage > octaves {
						t.Fatalf("%s at %v: not exact after %d stages", tc.name, p, stage)
					}
					tc.m.Refine(&c)
				}
				r := c
				if tc.m.Refine(&r); !bitsEqual(r, c) {
					t.Fatalf("%s at %v: refining an exact bound changed it", tc.name, p)
				}
			}
		}
		if len(tc.m.segs) > 0 && culled == 0 {
			t.Errorf("%s: no box culled a crest segment", tc.name)
		}
	}
}
