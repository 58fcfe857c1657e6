package weather

import (
	"math"
	"math/rand"

	"cisp/internal/geo"
	"cisp/internal/units"
)

// StormCell is a convective precipitation cell with a Gaussian rain-rate
// profile.
type StormCell struct {
	Center geo.Point
	Radius units.Meters // sigma
	PeakMM float64      // peak rain rate, mm/h
}

// FrontalBand is a line of stratiform rain (a weather front).
type FrontalBand struct {
	A, B   geo.Point
	Width  units.Meters // half-width
	RateMM float64      // rain rate inside the band, mm/h
}

// Field is the precipitation state for one interval.
type Field struct {
	Cells []StormCell
	Bands []FrontalBand
}

// cellReach is how far a storm cell rains, in units of its Radius (σ):
// beyond 3.5σ the Gaussian profile is below 0.22% of its peak and counts
// as dry. RainRate applies it per sample and PathAttenuation per hop.
const cellReach = 3.5

// RainRate returns the rain rate in mm/h at p (max of overlapping systems).
func (f *Field) RainRate(p geo.Point) float64 {
	rate := 0.0
	for i := range f.Cells {
		c := &f.Cells[i]
		d := p.DistanceTo(c.Center)
		x := units.Ratio(d, c.Radius)
		if x > cellReach {
			continue
		}
		if r := c.PeakMM * math.Exp(-0.5*x*x); r > rate {
			rate = r
		}
	}
	for i := range f.Bands {
		b := &f.Bands[i]
		if distToSegment(p, b.A, b.B) <= b.Width {
			if b.RateMM > rate {
				rate = b.RateMM
			}
		}
	}
	return rate
}

// Generator produces deterministic synthetic precipitation fields over a
// region, one per (day, interval) pair, with a seasonal convective cycle.
// Storm counts scale with the region's area so the same climatology works
// for a metro-scale test box and the full contiguous US.
type Generator struct {
	Seed           int64
	MinLat, MaxLat float64
	MinLon, MaxLon float64
}

// Storm climatology: the mean number of convective cells per million km²
// per interval at the seasonal peak, and of frontal bands per million km²
// per interval.
const (
	cellsPerMkm2 = 1
	bandsPerMkm2 = 0.08
)

// NewRegionGenerator returns a Generator whose bounds cover the given
// sites with a one-degree pad on every side — the Fig 7 convention, shared
// by the experiment and benchmark paths so they sample the same
// climatology for the same network.
func NewRegionGenerator(seed int64, sites []geo.Point) *Generator {
	minLat, maxLat, minLon, maxLon := 90.0, -90.0, 180.0, -180.0
	for _, p := range sites {
		minLat = math.Min(minLat, p.Lat)
		maxLat = math.Max(maxLat, p.Lat)
		minLon = math.Min(minLon, p.Lon)
		maxLon = math.Max(maxLon, p.Lon)
	}
	return &Generator{
		Seed:   seed,
		MinLat: minLat - 1, MaxLat: maxLat + 1,
		MinLon: minLon - 1, MaxLon: maxLon + 1,
	}
}

// areaMkm2 approximates the region's area in millions of km².
func (g *Generator) areaMkm2() float64 {
	latKm := (g.MaxLat - g.MinLat) * 111.2
	midLat := (g.MaxLat + g.MinLat) / 2 * math.Pi / 180
	lonKm := (g.MaxLon - g.MinLon) * 111.2 * math.Cos(midLat)
	a := latKm * lonKm / 1e6
	if a < 0.05 {
		a = 0.05
	}
	return a
}

// FieldAt returns the precipitation field for the given day of year
// (0-364) and half-hour interval (0-47). Deterministic in (Seed, day,
// interval).
func (g *Generator) FieldAt(day, interval int) *Field {
	rng := rand.New(rand.NewSource(g.Seed*100003 + int64(day)*59 + int64(interval)))
	area := g.areaMkm2()
	// Seasonal modulation: more convection mid-year (northern summer).
	season := 0.5 + 0.5*math.Sin(2*math.Pi*(float64(day)-80)/365)
	f := &Field{}

	nCells := poisson(rng, cellsPerMkm2*area*(0.4+1.2*season))
	for i := 0; i < nCells; i++ {
		// A fifth-power tail: most cells are weak stratiform showers; the
		// intense cores that can break a 30 dB fade margin are rare, as in
		// real convective climatology.
		u := rng.Float64()
		f.Cells = append(f.Cells, StormCell{
			Center: g.randPoint(rng),
			Radius: units.Meters(5e3 + rng.Float64()*25e3),
			PeakMM: 5 + 115*u*u*u*u*u,
		})
	}
	nBands := poisson(rng, bandsPerMkm2*area)
	for i := 0; i < nBands; i++ {
		a := g.randPoint(rng)
		b := a.Destination(rng.Float64()*360, units.Meters(300e3+rng.Float64()*700e3))
		// Stratiform band rain stays light enough that a hop inside the
		// band keeps ~0.2 dB/km — failures come from embedded cells.
		f.Bands = append(f.Bands, FrontalBand{
			A: a, B: b,
			Width:  units.Meters(40e3 + rng.Float64()*80e3),
			RateMM: 2 + rng.Float64()*8,
		})
	}
	return f
}

func (g *Generator) randPoint(rng *rand.Rand) geo.Point {
	return geo.Point{
		Lat: g.MinLat + rng.Float64()*(g.MaxLat-g.MinLat),
		Lon: g.MinLon + rng.Float64()*(g.MaxLon-g.MinLon),
	}
}

// PathAttenuation integrates specific attenuation along the great circle
// between two points, sampling every step (total attenuation).
//
// Each sample lies on the arc within half its length of the arc's
// midpoint, so by the triangle inequality a cell farther than
// cellReach·σ + total/2 from the midpoint is beyond cellReach·σ of every
// sample, where RainRate skips it. The cells are therefore culled once
// per hop, with a 1e-6 relative margin that covers the rounding of the
// computed distances, into a stack buffer that keeps their order, so
// each sample's rain rate is bit-identical to one over the whole field.
// Bands are not culled. A hop with no cell and no band in reach returns
// 0 without sampling: the sum of its samples would be 0 too.
func (f *Field) PathAttenuation(a, b geo.Point, fGHz float64, step units.Meters) units.DB {
	arc := a.ArcTo(b)
	total := arc.Length()
	if total == 0 {
		return 0
	}
	mid := arc.At(0.5)
	var buf [64]StormCell
	near := Field{Cells: buf[:0], Bands: f.Bands}
	for _, c := range f.Cells {
		if mid.DistanceTo(c.Center) <= (cellReach*c.Radius+total/2)*(1+1e-6) {
			near.Cells = append(near.Cells, c)
		}
	}
	if len(near.Cells) == 0 && len(near.Bands) == 0 {
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
			w = 0.5 // trapezoidal ends
		}
		dB += w * SpecificAttenuation(near.RainRate(p), fGHz) * segKm
	}
	return units.DB(dB)
}

// HopFails reports whether the hop a-b exceeds the fade margin under f.
func (f *Field) HopFails(a, b geo.Point, fGHz float64, fadeMargin units.DB) bool {
	return f.PathAttenuation(a, b, fGHz, attenStep) > fadeMargin
}

func distToSegment(p, a, b geo.Point) units.Meters {
	const mPerDegLat = 111194.9
	cosLat := math.Cos(a.Lat * math.Pi / 180)
	bx := (b.Lon - a.Lon) * mPerDegLat * cosLat
	by := (b.Lat - a.Lat) * mPerDegLat
	px := (p.Lon - a.Lon) * mPerDegLat * cosLat
	py := (p.Lat - a.Lat) * mPerDegLat
	l2 := bx*bx + by*by
	t := 0.0
	if l2 > 0 {
		t = (px*bx + py*by) / l2
		t = math.Max(0, math.Min(1, t))
	}
	return units.Meters(math.Hypot(px-t*bx, py-t*by))
}

func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
