// Package los evaluates microwave hop feasibility between towers: §3.1's
// line-of-sight test with full first-Fresnel-zone clearance over terrain and
// clutter, Earth-curvature bulge under atmospheric refraction K, and the
// range and usable-antenna-height restrictions studied in §6.5.
package los

import (
	"math"

	"cisp/internal/geo"
	"cisp/internal/terrain"
	"cisp/internal/towers"
	"cisp/internal/units"
)

// Params configures the feasibility test. The zero value is not useful; use
// DefaultParams (the paper's baseline: f=11 GHz, K=1.3, 100 km range, tower
// tops usable).
type Params struct {
	FreqGHz          float64      // carrier frequency
	K                float64      // effective Earth-radius factor
	MaxRange         units.Meters // maximum hop length
	UsableHeightFrac float64      // fraction of tower height available for antennae (§6.5)
	ProfileStep      units.Meters // terrain sampling step
}

// DefaultParams returns the paper's baseline §3.1/§4 parameters.
func DefaultParams() Params {
	return Params{
		FreqGHz:          geo.DefaultFrequencyGHz,
		K:                geo.DefaultRefraction,
		MaxRange:         geo.MaxHopRange,
		UsableHeightFrac: 1.0,
		ProfileStep:      500,
	}
}

// Evaluator tests hop feasibility over a terrain model.
type Evaluator struct {
	Terrain *terrain.Model
	Params  Params
}

// NewEvaluator returns an evaluator with the given terrain and parameters.
func NewEvaluator(t *terrain.Model, p Params) *Evaluator {
	if p.ProfileStep <= 0 {
		p.ProfileStep = 500
	}
	return &Evaluator{Terrain: t, Params: p}
}

// AntennaHeight returns the height above ground at which an antenna can be
// mounted on the tower under the usable-height restriction.
func (e *Evaluator) AntennaHeight(t towers.Tower) float64 {
	f := e.Params.UsableHeightFrac
	if f <= 0 || f > 1 {
		f = 1
	}
	return t.Height * f
}

// HopFeasible reports whether a microwave hop between towers a and b clears
// terrain, clutter, Earth bulge, and a full first Fresnel zone, and is
// within range.
func (e *Evaluator) HopFeasible(a, b towers.Tower) bool {
	return e.PointFeasible(a.Loc, b.Loc, e.AntennaASL(a), e.AntennaASL(b))
}

// AntennaASL is the height above sea level of an antenna mounted on the
// tower under the usable-height restriction.
func (e *Evaluator) AntennaASL(t towers.Tower) float64 {
	return e.Terrain.Elevation(t.Loc) + e.AntennaHeight(t)
}

// PointFeasible is HopFeasible for arbitrary endpoints with explicit
// above-sea-level antenna heights (used for city gateway attachments, and
// by callers that evaluate many hops per tower).
//
// A sample fails when the sight line runs below the surface plus the
// Earth bulge plus the Fresnel radius there. The terrain is prepared once
// per hop as a patch over a box holding every sample (hopBox). A sample
// whose line clears the patch's ceiling is decided without computing its
// point; any other is decided from its coarse bound (base surface and
// ridges), refined one noise stage at a time only while the bound
// straddles the line, its last stage being the exact surface. The verdict
// is an AND over samples, every bound holds the exact surface, and rounded
// addition is monotone, so it is the same as testing every sample
// exactly.
//
//cisp:hotpath
func (e *Evaluator) PointFeasible(a, b geo.Point, aASL, bASL float64) bool {
	s := e.sightLine(a, b, aASL, bASL)
	if s.total > e.Params.MaxRange {
		return false
	}
	if s.total <= 0 {
		return true
	}
	var kept [32]int32 // the patch's crest segments, on the stack
	patch := e.Terrain.Patch(hopBox(a, b, s.total), kept[:0])
	var points, octaves, clutter int
	ok := true
	for i := 1; i < s.n && ok; i++ {
		f, line, bulge, fresnel := e.clearance(&s, i)
		if line >= patch.Ceiling+bulge+fresnel {
			continue
		}
		points++
		c := patch.Coarse(s.arc.At(f))
		for line < c.Hi+bulge+fresnel {
			if line < c.Lo+bulge+fresnel {
				ok = false
				break
			}
			e.Terrain.Refine(&c)
		}
		o, cl := c.Evaluated()
		octaves += o
		if cl {
			clutter++
		}
	}
	if observe != nil {
		observe(points, octaves, clutter)
	}
	return ok
}

// observe, when non-nil, sees the work of every hop PointFeasible samples:
// the points it computed, the relief noise octaves it evaluated and the
// clutter fields. Only the package's tests set it (export_test.go), to pin
// that work.
var observe func(points, octaves, clutter int)

// hopBox bounds every sample of the great circle from a to b, total meters
// long, in a latitude/longitude box. A sample is wa·A + wb·B for the
// endpoints' unit vectors, with wa, wb ≥ 0 and 1 ≤ wa + wb ≤ 1/cos(d/2)
// for the central angle d. So:
//
//   - sin(lat) = wa·sin(latA) + wb·sin(latB) lies between the endpoints'
//     least sine, stretched by 1/cos(d/2) where negative, and their
//     greatest, stretched where positive;
//   - the longitude lies between the endpoints'. That is used only for
//     valid endpoints at most a quarter turn apart in longitude, which
//     rules out straddling ±180° and keeps the endpoints' horizontal
//     directions from nearly cancelling; other hops span every longitude.
//
// The box is widened by slacks far above the rounding of At, and a hop
// longer than a third of a great circle gets the whole globe.
func hopBox(a, b geo.Point, total units.Meters) terrain.Box {
	const zSlack, degSlack = 1e-12, 1e-9
	box := terrain.Box{
		Lo: geo.Point{Lat: -90 - degSlack, Lon: -180 - degSlack},
		Hi: geo.Point{Lat: 90 + degSlack, Lon: 180 + degSlack},
	}
	cosHalf := math.Cos(float64(total) / geo.EarthRadius / 2)
	if !(cosHalf > 0.5) {
		return box
	}
	za, zb := math.Sin(a.Lat*math.Pi/180), math.Sin(b.Lat*math.Pi/180)
	zLo, zHi := min(za, zb), max(za, zb)
	zLo, zHi = min(zLo, zLo/cosHalf), max(zHi, zHi/cosHalf)
	box.Lo.Lat = math.Asin(max(zLo-zSlack, -1))*180/math.Pi - degSlack
	box.Hi.Lat = math.Asin(min(zHi+zSlack, 1))*180/math.Pi + degSlack
	if a.Valid() && b.Valid() && math.Abs(a.Lon-b.Lon) <= 90 {
		box.Lo.Lon = min(a.Lon, b.Lon) - degSlack
		box.Hi.Lon = max(a.Lon, b.Lon) + degSlack
	}
	return box
}

// maxSamples bounds the samples of one hop: the sampling step is never
// finer than a two-hundredth of the hop.
const maxSamples = 200

// sightLine is one hop's sampling plan: the great circle between the
// antennas, its sample count, and the antenna heights above sea level.
type sightLine struct {
	arc    geo.Arc
	total  units.Meters
	n      int
	ha, hb float64
}

func (e *Evaluator) sightLine(a, b geo.Point, ha, hb float64) sightLine {
	arc := a.ArcTo(b)
	total := arc.Length()
	// Adaptive sampling: never more than ~200 samples, never coarser than
	// the configured step over long hops.
	step := e.Params.ProfileStep
	if minStep := total / maxSamples; step < minStep {
		step = minStep
	}
	n := int(total/step) + 1
	if n < 2 {
		n = 2
	}
	return sightLine{arc: arc, total: total, n: n, ha: ha, hb: hb}
}

// clearance returns sample i's fraction of the hop, the straight sight
// line's height there, and the clearance the line needs above the
// surface: the curvature bulge and the full first Fresnel zone. The
// sample's point is s.arc.At(f).
func (e *Evaluator) clearance(s *sightLine, i int) (f, line, bulge, fresnel float64) {
	f = float64(i) / float64(s.n)
	d1 := units.Meters(float64(s.total) * f)
	d2 := s.total - d1
	return f, s.ha + (s.hb-s.ha)*f,
		float64(geo.EarthBulge(d1, d2, e.Params.K)),
		float64(geo.FresnelRadius(d1, d2, e.Params.FreqGHz))
}

// ClearanceMargin returns the minimum clearance margin in meters along the
// hop (line height minus required height); negative means infeasible. Range
// violations return -Inf. Useful for diagnostics and tests.
func (e *Evaluator) ClearanceMargin(a, b towers.Tower) float64 {
	s := e.sightLine(a.Loc, b.Loc, e.AntennaASL(a), e.AntennaASL(b))
	if s.total > e.Params.MaxRange {
		return math.Inf(-1)
	}
	margin := math.Inf(1)
	for i := 1; i < s.n; i++ {
		f, line, bulge, fresnel := e.clearance(&s, i)
		if m := line - (e.Terrain.SurfaceHeight(s.arc.At(f)) + bulge + fresnel); m < margin {
			margin = m
		}
	}
	return margin
}
