package los

import (
	"math"
	"math/rand"
	"testing"

	"cisp/internal/geo"
	"cisp/internal/terrain"
	"cisp/internal/towers"
	"cisp/internal/units"
)

func towerAt(lat, lon, height float64) towers.Tower {
	return towers.Tower{Loc: geo.Point{Lat: lat, Lon: lon}, Height: height}
}

func flatEval() *Evaluator {
	return NewEvaluator(terrain.Flat(), DefaultParams())
}

func TestShortHopFlatTerrain(t *testing.T) {
	e := flatEval()
	a := towerAt(40, -100, 100)
	b := towerAt(40, -99.8, 100) // ~17 km
	if !e.HopFeasible(a, b) {
		t.Fatal("17 km hop between 100 m towers on flat terrain must be feasible")
	}
}

func TestRangeLimit(t *testing.T) {
	e := flatEval()
	a := towerAt(40, -100, 300)
	b := towerAt(40, -98.5, 300) // ~128 km > 100 km range
	if e.HopFeasible(a, b) {
		t.Fatal("hop beyond MaxRange must be infeasible")
	}
	if m := e.ClearanceMargin(a, b); !math.IsInf(m, -1) {
		t.Fatalf("margin for out-of-range hop = %v, want -Inf", m)
	}
}

func TestEarthBulgeBlocksLongLowHop(t *testing.T) {
	e := flatEval()
	// 95 km hop: midpoint bulge ~ (47.5*47.5)/(12.74*1.3) ≈ 136 m, plus
	// Fresnel ~25 m. Two 60 m towers cannot clear it; two 250 m towers can.
	a, b := towerAt(40, -100, 60), towerAt(40, -98.9, 60)
	if e.HopFeasible(a, b) {
		t.Fatal("60 m towers should not clear a ~94 km hop's Earth bulge")
	}
	a2, b2 := towerAt(40, -100, 250), towerAt(40, -98.9, 250)
	if !e.HopFeasible(a2, b2) {
		t.Fatal("250 m towers should clear a ~94 km hop on flat terrain")
	}
}

func TestMountainBlocksHop(t *testing.T) {
	// A single ridge across the middle of the hop.
	ridge := terrain.Ridge{
		Crest:  []geo.Point{{Lat: 39, Lon: -99.5}, {Lat: 41, Lon: -99.5}},
		Height: 2000, Width: 10e3,
	}
	m := terrain.New(1, []terrain.Ridge{ridge}, nil, 0, 0, 0)
	e := NewEvaluator(m, DefaultParams())
	a, b := towerAt(40, -100, 200), towerAt(40, -99, 200)
	if e.HopFeasible(a, b) {
		t.Fatal("2000 m ridge between towers must block the hop")
	}
	// The same hop on flat ground is fine.
	if !flatEval().HopFeasible(a, b) {
		t.Fatal("control hop without the ridge should be feasible")
	}
}

func TestUsableHeightRestrictionShrinksFeasibility(t *testing.T) {
	// A hop that barely clears with full tower height should fail at 45%.
	p := DefaultParams()
	full := NewEvaluator(terrain.Flat(), p)
	a, b := towerAt(40, -100, 170), towerAt(40, -98.95, 170) // ~89 km
	if !full.HopFeasible(a, b) {
		t.Fatal("baseline hop should be feasible at full height")
	}
	p.UsableHeightFrac = 0.45
	restricted := NewEvaluator(terrain.Flat(), p)
	if restricted.HopFeasible(a, b) {
		t.Fatal("hop should fail when only 45% of tower height is usable")
	}
}

func TestMarginConsistentWithFeasible(t *testing.T) {
	m := terrain.ContiguousUS(3)
	e := NewEvaluator(m, DefaultParams())
	cases := []struct{ a, b towers.Tower }{
		{towerAt(41.8, -87.6, 150), towerAt(41.9, -88.5, 150)},
		{towerAt(39.5, -106.5, 120), towerAt(39.5, -105.5, 120)}, // across the Rockies
		{towerAt(35, -101, 200), towerAt(35, -100.2, 200)},
		{towerAt(40.7, -74.0, 250), towerAt(40.9, -74.8, 250)},
	}
	for i, tc := range cases {
		feasible := e.HopFeasible(tc.a, tc.b)
		margin := e.ClearanceMargin(tc.a, tc.b)
		if feasible != (margin >= 0) {
			t.Errorf("case %d: feasible=%v but margin=%v", i, feasible, margin)
		}
	}
}

func TestTallerTowersNeverHurt(t *testing.T) {
	m := terrain.ContiguousUS(9)
	e := NewEvaluator(m, DefaultParams())
	base := 80.0
	for d := 0.2; d <= 0.9; d += 0.1 {
		a := towerAt(38, -95, base)
		b := towerAt(38, -95+d, base)
		tallA, tallB := a, b
		tallA.Height, tallB.Height = base*3, base*3
		if e.HopFeasible(a, b) && !e.HopFeasible(tallA, tallB) {
			t.Fatalf("raising towers made a feasible hop infeasible at Δlon=%v", d)
		}
		if m1, m2 := e.ClearanceMargin(a, b), e.ClearanceMargin(tallA, tallB); !math.IsInf(m1, -1) && m2 < m1 {
			t.Fatalf("taller towers reduced margin: %v -> %v", m1, m2)
		}
	}
}

func TestZeroDistanceHop(t *testing.T) {
	e := flatEval()
	a := towerAt(40, -100, 100)
	if !e.HopFeasible(a, a) {
		t.Fatal("zero-length hop should be trivially feasible")
	}
}

func TestPointFeasible(t *testing.T) {
	e := flatEval()
	a := geo.Point{Lat: 40, Lon: -100}
	b := geo.Point{Lat: 40, Lon: -99.5}
	if !e.PointFeasible(a, b, 120, 120) {
		t.Fatal("explicit-height hop on flat terrain should pass")
	}
	if e.PointFeasible(a, b, 1, 1) {
		t.Fatal("1 m antennae cannot clear a 43 km hop")
	}
}

// referenceFeasible is the feasibility test evaluated the direct way:
// every sample's exact surface, in order, with the great circle
// re-derived at each sample.
func referenceFeasible(e *Evaluator, a, b towers.Tower) bool {
	pa, pb := a.Loc, b.Loc
	total := pa.DistanceTo(pb)
	if total > e.Params.MaxRange {
		return false
	}
	if total <= 0 {
		return true
	}
	ha := e.Terrain.Elevation(pa) + e.AntennaHeight(a)
	hb := e.Terrain.Elevation(pb) + e.AntennaHeight(b)
	step := max(e.Params.ProfileStep, total/200)
	n := max(int(total/step)+1, 2)
	for i := 1; i < n; i++ {
		f := float64(i) / float64(n)
		d1 := units.Meters(float64(total) * f)
		d2 := total - d1
		needed := e.Terrain.SurfaceHeight(pa.Intermediate(pb, f)) +
			float64(geo.EarthBulge(d1, d2, e.Params.K)) +
			float64(geo.FresnelRadius(d1, d2, e.Params.FreqGHz))
		if ha+(hb-ha)*f < needed {
			return false
		}
	}
	return true
}

// TestFeasibleMatchesReference pins the kernel (the hop's patch ceiling
// first, then terrain bounds refined only while they straddle the line)
// to the direct test over random hops of every length, height and
// terrain, and ClearanceMargin's sign to it.
func TestFeasibleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for mi, m := range []*terrain.Model{terrain.Flat(), terrain.ContiguousUS(2), terrain.ContiguousUS(3)} {
		e := NewEvaluator(m, DefaultParams())
		counts := [2]int{}
		for k := 0; k < 4000; k++ {
			a := towerAt(30+rng.Float64()*18, -122+rng.Float64()*50, 40+rng.Float64()*260)
			b := towerAt(a.Loc.Lat+(rng.Float64()-0.5)*1.6, a.Loc.Lon+(rng.Float64()-0.5)*2.2, 40+rng.Float64()*260)
			got := e.HopFeasible(a, b)
			if want := referenceFeasible(e, a, b); got != want {
				t.Fatalf("hop %v-%v: feasible %v, reference %v", a.Loc, b.Loc, got, want)
			}
			if margin := e.ClearanceMargin(a, b); got != (margin >= 0) {
				t.Fatalf("hop %v-%v: feasible %v but margin %v", a.Loc, b.Loc, got, margin)
			}
			if got {
				counts[1]++
			} else {
				counts[0]++
			}
		}
		if mi > 0 && (counts[0] < 100 || counts[1] < 100) {
			t.Errorf("sample too one-sided to pin anything: %d infeasible, %d feasible", counts[0], counts[1])
		}
	}
}

func BenchmarkHopFeasible90km(b *testing.B) {
	m := terrain.ContiguousUS(1)
	e := NewEvaluator(m, DefaultParams())
	t1 := towerAt(40, -100, 150)
	t2 := towerAt(40, -98.95, 150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.HopFeasible(t1, t2)
	}
}

// TestHopBoxContainsSamples holds every sample of random hops inside the
// hop's box: hops up to and beyond MaxRange, in both hemispheres, above
// 70° of latitude, from and to the poles, and across ±180° of longitude.
// It also checks that the box is tight where it can be: a short hop away
// from the poles and the antimeridian gets a narrow box.
func TestHopBoxContainsSamples(t *testing.T) {
	e := NewEvaluator(terrain.Flat(), DefaultParams())
	rng := rand.New(rand.NewSource(3))
	narrow := 0
	for k := 0; k < 20000; k++ {
		a := geo.Point{Lat: (rng.Float64()*2 - 1) * 90, Lon: (rng.Float64()*2 - 1) * 180}
		switch k % 10 {
		case 0:
			a.Lat = math.Copysign(70+rng.Float64()*20, a.Lat)
		case 1:
			a.Lon = math.Copysign(179.5+rng.Float64()*0.5, a.Lon)
		case 2:
			a.Lat = math.Copysign(90, a.Lat)
		case 3:
			a.Lon = math.Copysign(180, a.Lon)
		}
		reach := rng.Float64() * 1.3 * float64(e.Params.MaxRange)
		if k%7 == 0 {
			reach = rng.Float64() * 8000e3
		}
		b := a.Destination(rng.Float64()*360, units.Meters(reach))
		if k%13 == 0 {
			b = geo.Point{Lat: math.Copysign(90, -a.Lat), Lon: b.Lon}
		}
		s := e.sightLine(a, b, 0, 0)
		box := hopBox(a, b, s.total)
		for i := 0; i <= s.n; i++ {
			p := s.arc.At(float64(i) / float64(s.n))
			if p.Lat < box.Lo.Lat || p.Lat > box.Hi.Lat || p.Lon < box.Lo.Lon || p.Lon > box.Hi.Lon {
				t.Fatalf("hop %v-%v (%.0f m): sample %d at %v outside box %v", a, b, s.total, i, p, box)
			}
		}
		if math.Abs(a.Lat) < 60 && s.total <= e.Params.MaxRange && math.Abs(a.Lon-b.Lon) < 2 {
			if box.Hi.Lon-box.Lo.Lon > 2.5 || box.Hi.Lat-box.Lo.Lat > 1 {
				t.Fatalf("hop %v-%v (%.0f m): box %v is not tight", a, b, s.total, box)
			}
			narrow++
		}
	}
	if narrow < 1000 {
		t.Errorf("only %d short mid-latitude hops checked for a tight box", narrow)
	}
}

// fuzzModels are the terrains FuzzFeasibleMatchesReference picks from: the
// two presets at the fuzzed seed, flat ground, and a model with a
// single-waypoint ridge, no noise and negative clutter; with the region
// each one's hops start in.
func fuzzModel(pick uint8, seed int64) (m *terrain.Model, lat0, lon0, dLat, dLon float64) {
	switch pick % 4 {
	case 0:
		return terrain.ContiguousUS(seed), 25, -125, 24, 58
	case 1:
		return terrain.Europe(seed), 36, -10, 30, 40
	case 2:
		return terrain.Flat(), 30, -110, 10, 10
	}
	return terrain.New(seed, []terrain.Ridge{
		{Crest: []geo.Point{{Lat: 40, Lon: -100}}, Height: 900, Width: 30e3},
	}, nil, 0, 0, -12), 38, -102, 4, 4
}

// FuzzFeasibleMatchesReference checks the kernel's verdict against the
// direct test over fuzzed endpoints, antenna heights, terrains and seeds.
// A pick with its high bit set starts the hop anywhere on the globe,
// poles and the antimeridian included.
func FuzzFeasibleMatchesReference(f *testing.F) {
	f.Add(0.5, 0.5, 0.3, -0.4, 150.0, 150.0, uint8(0), int64(1))
	f.Add(0.6, 0.3, -0.2, 0.5, 60.0, 250.0, uint8(0), int64(3))
	f.Add(0.4, 0.4, 0.1, 0.9, 120.0, 120.0, uint8(1), int64(11))
	f.Add(0.5, 0.5, 0.4, 0.4, 10.0, 300.0, uint8(2), int64(1))
	f.Add(0.5, 0.5, 0.2, 0.3, 200.0, 40.0, uint8(3), int64(2))
	f.Add(0.99, 0.999, 0.3, 0.9, 100.0, 100.0, uint8(0x80), int64(5))
	f.Fuzz(func(t *testing.T, u, v, dLat, dLon, ha, hb float64, pick uint8, seed int64) {
		for _, x := range []float64{u, v, dLat, dLon, ha, hb} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return
			}
		}
		frac := func(x float64) float64 { return x - math.Floor(x) }
		m, lat0, lon0, spanLat, spanLon := fuzzModel(pick, seed)
		if pick&0x80 != 0 {
			lat0, lon0, spanLat, spanLon = -90, -180, 180, 360
		}
		a := towerAt(lat0+frac(u)*spanLat, lon0+frac(v)*spanLon, math.Mod(math.Abs(ha), 400))
		b := towerAt(a.Loc.Lat+math.Mod(dLat, 1.2), a.Loc.Lon+math.Mod(dLon, 1.5), math.Mod(math.Abs(hb), 400))
		e := NewEvaluator(m, DefaultParams())
		if got, want := e.HopFeasible(a, b), referenceFeasible(e, a, b); got != want {
			t.Fatalf("hop %v-%v on terrain %d seed %d: feasible %v, reference %v", a.Loc, b.Loc, pick, seed, got, want)
		}
	})
}
