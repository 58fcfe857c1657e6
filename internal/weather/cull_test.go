package weather

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"cisp/internal/geo"
	"cisp/internal/units"
)

// unculledAttenuation is PathAttenuation with every sample measured
// against the whole field: the reference the per-hop cell cull must match
// bit for bit.
func unculledAttenuation(f *Field, a, b geo.Point, fGHz float64, step units.Meters) units.DB {
	arc := a.ArcTo(b)
	total := arc.Length()
	if total == 0 {
		return 0
	}
	n := int(total/step) + 1
	if n < 2 {
		n = 2
	}
	dB := 0.0
	segKm := float64(total.Km()) / float64(n)
	for i := 0; i <= n; i++ {
		p := arc.At(float64(i) / float64(n))
		w := 1.0
		if i == 0 || i == n {
			w = 0.5
		}
		dB += w * SpecificAttenuation(f.RainRate(p), fGHz) * segKm
	}
	return units.DB(dB)
}

// TestPathAttenuationMatchesUnculled compares PathAttenuation against the
// unculled reference over seeded US fields and three hop families: 1–100
// km tower hops, 100–1 500 km site-to-site hops (NewBackboneGeometry's),
// and hops that end within 4σ of a storm cell's centre, including ones
// that run radially away from just inside its reach, where the cull's
// margin is thinnest. Every value must match bit for bit, and the hash of
// all of them must match the one recorded from the unculled code.
func TestPathAttenuationMatchesUnculled(t *testing.T) {
	const wantHash = 0xde7632b3a31a47f
	rng := rand.New(rand.NewSource(20))
	h := fnv.New64a()
	var buf [8]byte
	hops, wet := 0, 0
	check := func(f *Field, a, b geo.Point) {
		t.Helper()
		got := f.PathAttenuation(a, b, geo.DefaultFrequencyGHz, attenStep)
		want := unculledAttenuation(f, a, b, geo.DefaultFrequencyGHz, attenStep)
		if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("hop %v-%v: culled %v dB, unculled %v dB", a, b, got, want)
		}
		bits := math.Float64bits(float64(got))
		for k := range buf {
			buf[k] = byte(bits >> (8 * k))
		}
		h.Write(buf[:])
		hops++
		if got > 0 {
			wet++
		}
	}
	hopFrom := func(a geo.Point, minKm, maxKm float64) geo.Point {
		return a.Destination(rng.Float64()*360, units.Meters((minKm+rng.Float64()*(maxKm-minKm))*1e3))
	}
	for seed := int64(1); seed <= 3; seed++ {
		gen := &Generator{Seed: seed, MinLat: 24, MaxLat: 50, MinLon: -125, MaxLon: -66}
		for day := 0; day < 365; day += 30 {
			f := gen.FieldAt(day, int(seed*7+int64(day))%48)
			for k := 0; k < 40; k++ {
				a := gen.randPoint(rng)
				check(f, a, hopFrom(a, 1, 100))
			}
			for k := 0; k < 10; k++ {
				a := gen.randPoint(rng)
				check(f, a, hopFrom(a, 100, 1500))
			}
			for _, c := range f.Cells {
				for k := 0; k < 4; k++ {
					end := c.Center.Destination(rng.Float64()*360, units.Meters(rng.Float64()*4*float64(c.Radius)))
					if k%2 == 0 {
						check(f, hopFrom(end, 1, 100), end)
					} else {
						check(f, end, hopFrom(end, 100, 1500))
					}
				}
				// A hop that starts just inside the cell's reach and runs
				// straight away from it has its midpoint at the cull
				// radius itself, less a sliver.
				for k := 0; k < 2; k++ {
					bearing := rng.Float64() * 360
					r := cellReach * float64(c.Radius) * (1 - 1e-4*rng.Float64())
					length := 1e3 + rng.Float64()*1499e3
					check(f, c.Center.Destination(bearing, units.Meters(r)), c.Center.Destination(bearing, units.Meters(r+length)))
				}
			}
		}
	}
	if wet*10 < hops {
		t.Fatalf("only %d of %d hops saw rain", wet, hops)
	}
	if got := h.Sum64(); got != wantHash {
		t.Errorf("%d hops (%d wet): attenuation hash %#x, want %#x", hops, wet, got, uint64(wantHash))
	}
}
