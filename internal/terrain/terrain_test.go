package terrain

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cisp/internal/geo"
)

func TestFlatModel(t *testing.T) {
	m := Flat()
	p := geo.Point{Lat: 40, Lon: -100}
	if e := m.Elevation(p); e != 0 {
		t.Errorf("flat elevation = %v, want 0", e)
	}
	if c := m.ClutterHeight(p); c != 0 {
		t.Errorf("flat clutter = %v, want 0", c)
	}
}

func TestDeterminism(t *testing.T) {
	m1 := ContiguousUS(42)
	m2 := ContiguousUS(42)
	p := geo.Point{Lat: 39.7, Lon: -104.9} // Denver
	if m1.Elevation(p) != m2.Elevation(p) {
		t.Fatal("same seed must give identical terrain")
	}
	m3 := ContiguousUS(43)
	same := 0
	for _, q := range []geo.Point{
		{Lat: 40, Lon: -100}, {Lat: 35, Lon: -90},
		{Lat: 45, Lon: -120}, {Lat: 33, Lon: -84},
	} {
		if m1.Elevation(q) == m3.Elevation(q) {
			same++
		}
	}
	if same == 4 {
		t.Fatal("different seeds should differ somewhere")
	}
}

func TestUSGeographicShape(t *testing.T) {
	m := ContiguousUS(1)
	denver := m.Elevation(geo.Point{Lat: 39.74, Lon: -104.99})
	chicago := m.Elevation(geo.Point{Lat: 41.88, Lon: -87.63})
	rockies := m.Elevation(geo.Point{Lat: 39.5, Lon: -106.2})
	nyc := m.Elevation(geo.Point{Lat: 40.71, Lon: -74.01})
	if denver < 1000 {
		t.Errorf("Denver elevation = %.0f m, want >1000 (mile-high)", denver)
	}
	if chicago > 600 {
		t.Errorf("Chicago elevation = %.0f m, want lowland (<600)", chicago)
	}
	if rockies < 2000 {
		t.Errorf("Rockies crest = %.0f m, want >2000", rockies)
	}
	if rockies <= chicago || rockies <= nyc {
		t.Errorf("Rockies (%.0f) must tower over Chicago (%.0f) and NYC (%.0f)", rockies, chicago, nyc)
	}
}

func TestEuropeGeographicShape(t *testing.T) {
	m := Europe(1)
	alps := m.Elevation(geo.Point{Lat: 46.5, Lon: 9.8})
	berlin := m.Elevation(geo.Point{Lat: 52.52, Lon: 13.40})
	if alps < 2000 {
		t.Errorf("Alps = %.0f m, want >2000", alps)
	}
	if berlin > 500 {
		t.Errorf("Berlin = %.0f m, want lowland", berlin)
	}
}

func TestElevationNonNegative(t *testing.T) {
	m := ContiguousUS(7)
	f := func(lat, lon float64) bool {
		p := geo.Point{Lat: 25 + math.Mod(math.Abs(lat), 24), Lon: -125 + math.Mod(math.Abs(lon), 58)}
		return m.Elevation(p) >= 0 && m.ClutterHeight(p) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSurfaceIncludesClutter(t *testing.T) {
	m := ContiguousUS(7)
	f := func(lat, lon float64) bool {
		p := geo.Point{Lat: 25 + math.Mod(math.Abs(lat), 24), Lon: -125 + math.Mod(math.Abs(lon), 58)}
		return m.SurfaceHeight(p) >= m.Elevation(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProfile(t *testing.T) {
	m := ContiguousUS(3)
	a := geo.Point{Lat: 41.88, Lon: -87.63}  // Chicago
	b := geo.Point{Lat: 39.74, Lon: -104.99} // Denver
	prof := m.Profile(a, b, 1000)
	if len(prof) < 100 {
		t.Fatalf("profile has %d samples, want many at 1km step", len(prof))
	}
	if prof[0].Dist != 0 {
		t.Errorf("first sample dist = %v, want 0", prof[0].Dist)
	}
	total := a.DistanceTo(b)
	last := prof[len(prof)-1].Dist
	if math.Abs(last-float64(total)) > 1 {
		t.Errorf("last sample dist = %v, want %v", last, total)
	}
	// Distances strictly increasing.
	for i := 1; i < len(prof); i++ {
		if prof[i].Dist <= prof[i-1].Dist {
			t.Fatalf("profile distances not increasing at %d", i)
		}
	}
	// The western end should be higher than the eastern end on average.
	n := len(prof)
	east, west := 0.0, 0.0
	for i := 0; i < n/4; i++ {
		east += prof[i].Ground
		west += prof[n-1-i].Ground
	}
	if west <= east {
		t.Errorf("Chicago→Denver profile should rise westward (east=%.0f west=%.0f)", east, west)
	}
}

func TestProfileShortHop(t *testing.T) {
	m := Flat()
	a := geo.Point{Lat: 40, Lon: -100}
	b := geo.Point{Lat: 40, Lon: -100.001}
	prof := m.Profile(a, b, 5000) // step longer than the hop
	if len(prof) < 3 {
		t.Fatalf("short profile has %d samples, want >=3 (endpoints + midpoint)", len(prof))
	}
}

func TestRidgeFallsOffWithDistance(t *testing.T) {
	m := New(1, []Ridge{{Crest: []geo.Point{{Lat: 40, Lon: -106}, {Lat: 42, Lon: -106}}, Height: 2000, Width: 100e3}}, nil, 0, 0, 0)
	at := m.Elevation(geo.Point{Lat: 41, Lon: -106})
	near := m.Elevation(geo.Point{Lat: 41, Lon: -105})
	far := m.Elevation(geo.Point{Lat: 41, Lon: -101})
	if !(at > near && near > far) {
		t.Fatalf("ridge contribution should decay: at=%f near=%f far=%f", at, near, far)
	}
	if far > 1 {
		t.Errorf("contribution 400+ km away = %f, want ~0", far)
	}
}

// referenceElevation is Elevation evaluated the direct way: the base
// surface as the function it was written as, and every crest segment
// projected afresh at every point, with no segment skipped.
func referenceElevation(m *Model, base func(geo.Point) float64, ridges []Ridge, p geo.Point) float64 {
	e := base(p)
	for _, r := range ridges {
		best := math.Inf(1)
		for i := 0; i+1 < len(r.Crest); i++ {
			a, b := r.Crest[i], r.Crest[i+1]
			cosLat := math.Cos(a.Lat * math.Pi / 180)
			bx := (b.Lon - a.Lon) * mPerDegLat * cosLat
			by := (b.Lat - a.Lat) * mPerDegLat
			px := (p.Lon - a.Lon) * mPerDegLat * cosLat
			py := (p.Lat - a.Lat) * mPerDegLat
			l2 := bx*bx + by*by
			t := 0.0
			if l2 > 0 {
				t = math.Max(0, math.Min(1, (px*bx+py*by)/l2))
			}
			best = math.Min(best, math.Hypot(px-t*bx, py-t*by))
		}
		if x := best / r.Width; x <= 4 {
			e += r.Height * math.Exp(-0.5*x*x)
		}
	}
	if m.noiseAmp > 0 {
		e += m.noiseAmp * m.fractalNoise(p, 0)
	}
	return math.Max(e, 0)
}

// TestPreparedRidgesMatchReference pins the prepared ridges (projections
// computed once, far segments skipped) to the direct evaluation bit for
// bit, and Coarse's bounds around the exact surface, over both regions.
func TestPreparedRidgesMatchReference(t *testing.T) {
	regions := []struct {
		name       string
		m          *Model
		base       func(geo.Point) float64
		ridges     []Ridge
		lat0, lon0 float64
		dLat, dLon float64
	}{
		{"us", ContiguousUS(5), referenceUSBase, usRidges(), 25, -125, 24, 58},
		{"europe", Europe(5), referenceEuropeBase, europeRidges(), 36, -10, 30, 40},
	}
	for _, rg := range regions {
		rng := rand.New(rand.NewSource(1))
		for k := 0; k < 20000; k++ {
			p := geo.Point{Lat: rg.lat0 + rng.Float64()*rg.dLat, Lon: rg.lon0 + rng.Float64()*rg.dLon}
			got, want := rg.m.Elevation(p), referenceElevation(rg.m, rg.base, rg.ridges, p)
			if got != want {
				t.Fatalf("%s %v: elevation %v, reference %v", rg.name, p, got, want)
			}
			c := rg.m.Coarse(p)
			s := rg.m.SurfaceHeight(p)
			if exact := rg.m.Surface(c); exact != s {
				t.Fatalf("%s %v: Surface(Coarse) %v, SurfaceHeight %v", rg.name, p, exact, s)
			}
			if s < c.Lo || s > c.Hi {
				t.Fatalf("%s %v: surface %v outside its coarse bounds [%v, %v]", rg.name, p, s, c.Lo, c.Hi)
			}
		}
	}
}

func TestValueNoiseRange(t *testing.T) {
	f := func(x, y float64, seed int64) bool {
		v := valueNoise(math.Mod(x, 1e6), math.Mod(y, 1e6), seed)
		return v >= -1 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkElevation(b *testing.B) {
	m := ContiguousUS(1)
	p := geo.Point{Lat: 39.7, Lon: -104.9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Elevation(p)
	}
}

func BenchmarkProfile100km(b *testing.B) {
	m := ContiguousUS(1)
	a := geo.Point{Lat: 40, Lon: -100}
	c := geo.Point{Lat: 40, Lon: -98.8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Profile(a, c, 200)
	}
}
