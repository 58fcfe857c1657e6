// Package terrain provides a deterministic synthetic elevation and ground
// clutter model standing in for the NASA SRTM + NED dataset the paper uses
// for line-of-sight assessment (§3.1, §4).
//
// The model is the sum of three parts:
//
//   - a smooth regional base surface (e.g. the US high plains rising west
//     toward the Rockies),
//   - parameterised mountain ranges, each a polyline crest with a Gaussian
//     cross-section (Rockies, Sierra Nevada, Cascades, Appalachians; the
//     Alps, Pyrenees, Carpathians, Apennines for Europe), and
//   - multi-octave value noise for local relief, seeded and fully
//     deterministic.
//
// Ground clutter (tree canopy, buildings) is modelled as a separate
// low-amplitude noise field, because the paper's dataset "includes buildings
// and ground clutter, and effectively incorporates the height of the tree
// canopy". Line-of-sight code should test clearance against SurfaceHeight,
// which includes clutter, exactly as the paper tests against its combined
// dataset.
//
// A caller that tests many points of one small area (the samples of a hop)
// prepares a Patch over the area's box: it keeps only the crest segments in
// reach of the box and bounds the surface anywhere in it, and its Coarse
// bounds, tightened stage by stage with Refine, end at SurfaceHeight bit
// for bit.
//
// The substitution preserves what matters to the cISP design study: hop
// feasibility degrades in mountainous regions, so tower paths detour there
// (e.g. the Illinois-California link of Fig 4b crosses the Rockies), while
// the plains and the eastern seaboard are easy.
package terrain

import (
	"math"
	"slices"

	"cisp/internal/geo"
)

// Sample is one point of a terrain profile between two endpoints.
type Sample struct {
	Dist    float64 // meters from the start of the profile
	Ground  float64 // bare-earth elevation, meters above sea level
	Clutter float64 // additional clutter height (trees, buildings), meters
}

// Ridge is a mountain range: a crest polyline with a Gaussian cross-section.
type Ridge struct {
	Crest  []geo.Point // waypoints along the range's spine
	Height float64     // peak height above the base surface, meters
	Width  float64     // Gaussian sigma of the cross-section, meters
}

// Base is a smooth regional base surface that varies along one coordinate
// only: a piecewise-linear profile along longitude, or along latitude when
// Lat is set. It is data rather than a function so that a Patch can bound
// it over a box.
type Base struct {
	Lat    bool
	Pieces []Piece
}

// Piece is one stretch of a Base. It covers the coordinates x above Above,
// up to the previous piece's Above; the last piece covers every coordinate
// below and its Above is ignored. There the base is At, or At +
// (X0-x)/Span*Rise when Rise is nonzero (Span must then be nonzero too).
// Each step of that expression is monotone under rounding, so a stretch's
// largest value over an interval is at one of its ends.
type Piece struct {
	Above, At, X0, Span, Rise float64
}

// Model is a deterministic synthetic terrain. The zero value is a flat,
// clutter-free plain at sea level, ready to use in tests.
type Model struct {
	seed        int64
	base        Base
	ridges      []ridge
	segs        []crestSegment // every ridge's crest segments, ridge by ridge
	all         []int32        // every index into segs: the whole map's patch
	noiseAmp    float64        // amplitude of the relief noise, meters
	noiseScale  float64        // degrees per noise cell at the first octave
	clutterAmp  float64        // max clutter height, meters
	clutterFrac float64        // fraction of terrain carrying significant clutter
}

// Flat returns a featureless sea-level terrain with no clutter. Useful in
// tests and as a best-case bound for hop feasibility.
func Flat() *Model { return &Model{} }

// New constructs a synthetic terrain with the given ranges and noise
// parameters. base may be nil for a sea-level base surface.
func New(seed int64, ridges []Ridge, base *Base, noiseAmp, noiseScale, clutterAmp float64) *Model {
	m := &Model{
		seed:        seed,
		noiseAmp:    noiseAmp,
		noiseScale:  noiseScale,
		clutterAmp:  clutterAmp,
		clutterFrac: 0.6,
	}
	if base != nil {
		m.base = Base{Lat: base.Lat, Pieces: slices.Clone(base.Pieces)}
	}
	for _, r := range ridges {
		// A ridge without width or crest contributes nothing anywhere.
		if r.Width <= 0 || len(r.Crest) == 0 {
			continue
		}
		ri := int32(len(m.ridges))
		m.ridges = append(m.ridges, ridge{height: r.Height, width: r.Width, cut: 4 * r.Width * (1 + 1e-9)})
		if len(r.Crest) == 1 {
			m.segs = append(m.segs, crestSegment{ridge: ri, point: true, a: r.Crest[0]})
		}
		for i := 0; i+1 < len(r.Crest); i++ {
			a, b := r.Crest[i], r.Crest[i+1]
			s := crestSegment{ridge: ri, a: a, cosLat: math.Cos(a.Lat * math.Pi / 180)}
			s.bx = (b.Lon - a.Lon) * mPerDegLat * s.cosLat
			s.by = (b.Lat - a.Lat) * mPerDegLat
			s.l2 = s.bx*s.bx + s.by*s.by
			m.segs = append(m.segs, s)
		}
	}
	m.all = make([]int32, len(m.segs))
	for i := range m.all {
		m.all[i] = int32(i)
	}
	return m
}

// Elevation returns the bare-earth elevation in meters at p.
func (m *Model) Elevation(p geo.Point) float64 {
	whole := m.whole()
	noise := 0.0
	if m.noiseAmp > 0 {
		noise = m.fractalNoise(p, 0)
	}
	return m.elevation(whole.relief(p), noise)
}

// elevation completes an elevation from the relief at a point and the
// relief noise there (in [-1, 1]; unused without relief noise): the noise,
// then the sea-level floor.
func (m *Model) elevation(relief, noise float64) float64 {
	e := relief
	if m.noiseAmp > 0 {
		e += m.noiseAmp * noise
	}
	if e < 0 {
		e = 0
	}
	return e
}

// Coarse bounds the surface height at one point from what has been
// evaluated there: SurfaceHeight lies within [Lo, Hi]. A Coarse from
// Patch.Coarse has the base surface and ridges alone; Refine adds the
// noise fields one stage at a time, which cost most of a surface
// evaluation, so a caller that only needs to know whether a height clears
// the surface can often decide before the last stage.
type Coarse struct {
	Lo, Hi  float64
	p       geo.Point
	relief  float64 // the base surface plus every ridge
	noise   float64 // the sum of the relief octaves evaluated
	octaves int8    // relief octaves evaluated
	exact   bool    // Lo == Hi == SurfaceHeight
	clutter bool    // the clutter field has been evaluated
}

// Evaluated reports the noise a bound has evaluated: how many relief
// octaves, and whether the clutter field.
func (c *Coarse) Evaluated() (octaves int, clutter bool) { return int(c.octaves), c.clutter }

// Coarse bounds the surface height at p from the base surface and ridges
// alone.
func (m *Model) Coarse(p geo.Point) Coarse {
	whole := m.whole()
	return whole.Coarse(p)
}

// Refine tightens a bound by one stage: the next relief octave, with the
// octaves still to come bounding the rest, and once the relief is
// complete, the clutter field, which makes the bound exact: Lo == Hi ==
// SurfaceHeight at its point, bit for bit. An exact bound stays as it is.
//
//cisp:hotpath
func (m *Model) Refine(c *Coarse) {
	switch {
	case c.exact:
	case m.noiseAmp > 0 && c.octaves < octaves:
		x, y := m.lattice(c.p)
		for range c.octaves {
			x *= 2.03
			y *= 2.03
		}
		c.noise += octaveAmp[c.octaves] * valueNoise(x, y, m.seed*1000003+int64(c.octaves))
		c.octaves++
		m.bound(c)
	default:
		s := m.elevation(c.relief, c.noise/noiseNorm) + m.ClutterHeight(c.p)
		c.Lo, c.Hi, c.exact, c.clutter = s, s, true, m.clutterAmp != 0
	}
}

// bound sets c's Lo and Hi from what it has evaluated. The relief octaves
// still to come add at most their amplitudes, and the clutter lies between
// zero and its amplitude; the slack absorbs the rounding of the exact
// sums.
func (m *Model) bound(c *Coarse) {
	noise := max(m.noiseAmp, 0)
	slack := 1e-9 * (math.Abs(c.relief) + noise + math.Abs(m.clutterAmp) + 1)
	lo, hi := c.relief, c.relief
	if noise > 0 {
		rest := octaveRest[c.octaves]
		lo += (c.noise - rest) * noise * (1 / noiseNorm)
		hi += (c.noise + rest) * noise * (1 / noiseNorm)
	}
	c.Lo = max(lo, 0) + min(m.clutterAmp, 0) - slack
	c.Hi = max(hi, 0) + max(m.clutterAmp, 0) + slack
}

// Surface completes a bound: it refines c to the end and returns
// SurfaceHeight at its point, bit for bit.
func (m *Model) Surface(c Coarse) float64 {
	for !c.exact {
		m.Refine(&c)
	}
	return c.Lo
}

// ClutterHeight returns the obstruction height above ground (tree canopy,
// buildings) at p.
func (m *Model) ClutterHeight(p geo.Point) float64 {
	if m.clutterAmp == 0 {
		return 0
	}
	n := m.fractalNoise(p, 1) // in [-1, 1]
	v := (n + 1) / 2          // [0, 1]
	if v < 1-m.clutterFrac {  // bare patches
		return 0
	}
	return m.clutterAmp * (v - (1 - m.clutterFrac)) / m.clutterFrac
}

// SurfaceHeight returns ground elevation plus clutter at p — the height a
// microwave sight-line must clear.
func (m *Model) SurfaceHeight(p geo.Point) float64 {
	return m.Elevation(p) + m.ClutterHeight(p)
}

// Profile samples the surface along the great circle from a to b every step
// meters (clamped to at least 2 samples, endpoints included).
func (m *Model) Profile(a, b geo.Point, step float64) []Sample {
	arc := a.ArcTo(b)
	total := float64(arc.Length())
	n := int(total/step) + 1
	if n < 2 {
		n = 2
	}
	out := make([]Sample, n+1)
	for i := 0; i <= n; i++ {
		f := float64(i) / float64(n)
		p := arc.At(f)
		out[i] = Sample{
			Dist:    f * total,
			Ground:  m.Elevation(p),
			Clutter: m.ClutterHeight(p),
		}
	}
	return out
}

// Box is a latitude/longitude box in degrees, from its south-west corner
// Lo to its north-east corner Hi. It never wraps across ±180°: a box that
// must reach both sides spans every longitude.
type Box struct{ Lo, Hi geo.Point }

// Patch is the terrain over one Box, prepared for the many points a caller
// evaluates inside it: only the crest segments in reach of the box are
// kept, and the surface anywhere in the box is bounded.
type Patch struct {
	// Ceiling is at least SurfaceHeight at every point of the box.
	Ceiling float64
	m       *Model
	kept    []int32 // indices into m.segs, ridge by ridge
}

// Patch prepares the terrain over b. Each point skips a crest segment
// whose projected bounding box is farther than its ridge's cut from the
// point's projection on either axis; Patch applies that test to the whole
// box, whose projection spans every inside point's because each projection
// step is monotone under rounding. So a dropped segment is one that every
// point inside b would skip, and Coarse at a point inside b equals
// Model.Coarse there bit for bit. A single-waypoint crest is always kept.
//
// The kept segments' indices are appended to kept[:0], and the patch
// refers to them: a caller that passes a stack buffer builds a patch
// without allocating.
//
// Ceiling is the base surface's ceiling over the box, plus each kept
// ridge's height where positive (the Gaussian never exceeds it), plus the
// relief noise and clutter amplitudes, plus a slack for rounding.
func (m *Model) Patch(b Box, kept []int32) Patch {
	pt := Patch{m: m, kept: kept[:0]}
	lo, hi := b.Lo.Lon, b.Hi.Lon
	if m.base.Lat {
		lo, hi = b.Lo.Lat, b.Hi.Lat
	}
	top := m.base.ceiling(lo, hi)
	last := int32(-1)
	for i := range m.segs {
		s := &m.segs[i]
		if !s.point && !s.reaches(b, m.ridges[s.ridge].cut) {
			continue
		}
		pt.kept = append(pt.kept, int32(i))
		if s.ridge != last {
			last = s.ridge
			top += max(m.ridges[s.ridge].height, 0)
		}
	}
	pt.Ceiling = max(top+max(m.noiseAmp, 0), 0) + max(m.clutterAmp, 0) +
		1e-9*(math.Abs(top)+math.Abs(m.noiseAmp)+math.Abs(m.clutterAmp)+1)
	return pt
}

// whole is the whole map's patch: every crest segment kept, under a
// ceiling of +Inf.
func (m *Model) whole() Patch { return Patch{Ceiling: math.Inf(1), m: m, kept: m.all} }

// Coarse bounds the surface height at p, a point inside the patch's box,
// from the base surface and ridges alone: it equals Model.Coarse(p) bit
// for bit.
//
//cisp:hotpath
func (pt *Patch) Coarse(p geo.Point) Coarse {
	c := Coarse{p: p, relief: pt.relief(p)}
	pt.m.bound(&c)
	return c
}

// relief is the noise-free part of the elevation at p: the base surface
// plus every kept ridge's Gaussian cross-section at the distance to its
// nearest kept crest segment.
func (pt *Patch) relief(p geo.Point) float64 {
	m := pt.m
	e := m.base.at(p)
	for i := 0; i < len(pt.kept); {
		ri := m.segs[pt.kept[i]].ridge
		r := &m.ridges[ri]
		best := math.Inf(1)
		for ; i < len(pt.kept) && m.segs[pt.kept[i]].ridge == ri; i++ {
			if d := m.segs[pt.kept[i]].distance(p, r.cut); d < best {
				best = d
			}
		}
		// Beyond 4 sigma the range is negligible.
		if x := best / r.width; x <= 4 {
			e += r.height * math.Exp(-0.5*x*x)
		}
	}
	return e
}

// ridge is a Ridge prepared for evaluation; its crest segments are in the
// model's segs.
type ridge struct {
	height, width float64
	cut           float64 // a segment farther than this contributes nothing
}

// crestSegment is one crest segment of a ridge, projected into the local
// plane centred at its start a (meters per degree, equirectangular), where
// it runs from the origin to (bx, by); or, for a single-waypoint crest,
// the point a.
type crestSegment struct {
	ridge      int32
	point      bool
	a          geo.Point
	cosLat     float64
	bx, by, l2 float64
}

// mPerDegLat is the meters per degree of latitude of the local projection.
const mPerDegLat = 111194.9

// distance approximates the distance in meters from p to the segment,
// using its local equirectangular projection (adequate at mountain-range
// scale); a single-waypoint crest is measured along the great circle. A
// segment farther than cut from p on either axis gets +Inf: its closest
// point lies in its projected bounding box, so the distance is at least
// the gap to that box, and the contribution is zero either way.
func (s *crestSegment) distance(p geo.Point, cut float64) float64 {
	if s.point {
		return float64(p.DistanceTo(s.a))
	}
	px := (p.Lon - s.a.Lon) * mPerDegLat * s.cosLat
	py := (p.Lat - s.a.Lat) * mPerDegLat
	if gap(px, s.bx) > cut || gap(py, s.by) > cut {
		return math.Inf(1)
	}
	t := 0.0
	if s.l2 > 0 {
		t = (px*s.bx + py*s.by) / s.l2
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
	}
	return math.Hypot(px-t*s.bx, py-t*s.by)
}

// reaches reports whether some point of b passes the segment's bounding
// test in distance: b's projection spans every inside point's, and a
// point's gap is least at the span's end nearest the segment.
func (s *crestSegment) reaches(b Box, cut float64) bool {
	x0 := (b.Lo.Lon - s.a.Lon) * mPerDegLat * s.cosLat
	x1 := (b.Hi.Lon - s.a.Lon) * mPerDegLat * s.cosLat
	y0 := (b.Lo.Lat - s.a.Lat) * mPerDegLat
	y1 := (b.Hi.Lat - s.a.Lat) * mPerDegLat
	return !(spanGap(min(x0, x1), max(x0, x1), s.bx) > cut || spanGap(y0, y1, s.by) > cut)
}

// gap is the distance from v to the interval between 0 and end.
func gap(v, end float64) float64 {
	lo, hi := 0.0, end
	if end < 0 {
		lo, hi = end, 0
	}
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	}
	return 0
}

// spanGap is the least gap(v, end) over v in [lo, hi]: gap falls toward
// the interval between 0 and end and rises beyond it, under rounding too.
func spanGap(lo, hi, end float64) float64 {
	switch {
	case hi < min(0, end):
		return gap(hi, end)
	case lo > max(0, end):
		return gap(lo, end)
	}
	return 0
}

// at returns the base surface at p.
func (b *Base) at(p geo.Point) float64 {
	if b.Lat {
		return b.value(p.Lat)
	}
	return b.value(p.Lon)
}

// value returns the base surface at coordinate x along its profile.
func (b *Base) value(x float64) float64 {
	if len(b.Pieces) == 0 {
		return 0
	}
	i := 0
	for i < len(b.Pieces)-1 && !(x > b.Pieces[i].Above) {
		i++
	}
	return b.Pieces[i].eval(x)
}

// ceiling is at least the base surface at every coordinate in [lo, hi]:
// the largest value of each stretch over the part of [lo, hi] it may
// cover, taken at that part's ends.
func (b *Base) ceiling(lo, hi float64) float64 {
	if len(b.Pieces) == 0 {
		return 0
	}
	c := math.Inf(-1)
	top := math.Inf(1)
	for i := range b.Pieces {
		bottom := math.Inf(-1)
		if i < len(b.Pieces)-1 {
			bottom = b.Pieces[i].Above
		}
		if hi > bottom && lo <= top {
			c = max(c, b.Pieces[i].eval(max(lo, bottom)), b.Pieces[i].eval(min(hi, top)))
		}
		top = bottom
	}
	return c
}

// eval is the piece's expression at x.
func (p *Piece) eval(x float64) float64 {
	if p.Rise == 0 {
		return p.At
	}
	return p.At + (p.X0-x)/p.Span*p.Rise
}

// octaves is the number of octaves of each noise field.
const octaves = 4

// octaveAmp is each octave's amplitude, and octaveRest the amplitude of
// the octaves from each one on: the relief noise evaluated through octave
// k lies within octaveRest[k] of its final sum.
var (
	octaveAmp  = [octaves]float64{1, 0.5, 0.25, 0.125}
	octaveRest = [octaves + 1]float64{1.875, 0.875, 0.375, 0.125, 0}
)

// noiseNorm is the sum of the octave amplitudes.
const noiseNorm = 1.875

// lattice returns the first noise octave's lattice coordinates at p; each
// further octave's are 2.03 times the previous.
func (m *Model) lattice(p geo.Point) (x, y float64) {
	scale := m.noiseScale
	if scale <= 0 {
		scale = 0.5
	}
	return p.Lon / scale, p.Lat / scale
}

// fractalNoise returns deterministic multi-octave value noise in [-1, 1] for
// the given channel (0 = relief, 1 = clutter).
func (m *Model) fractalNoise(p geo.Point, channel int64) float64 {
	x, y := m.lattice(p)
	sum := 0.0
	for oct := range octaves {
		sum += octaveAmp[oct] * valueNoise(x, y, m.seed*1000003+channel*7919+int64(oct))
		x *= 2.03
		y *= 2.03
	}
	return sum / noiseNorm
}

// valueNoise is lattice value noise with smoothstep interpolation, in [-1,1].
func valueNoise(x, y float64, seed int64) float64 {
	x0, y0 := math.Floor(x), math.Floor(y)
	fx, fy := x-x0, y-y0
	ix, iy := int64(x0), int64(y0)
	v00 := latticeValue(ix, iy, seed)
	v10 := latticeValue(ix+1, iy, seed)
	v01 := latticeValue(ix, iy+1, seed)
	v11 := latticeValue(ix+1, iy+1, seed)
	sx, sy := smoothstep(fx), smoothstep(fy)
	top := v00 + (v10-v00)*sx
	bot := v01 + (v11-v01)*sx
	return top + (bot-top)*sy
}

func smoothstep(t float64) float64 { return t * t * (3 - 2*t) }

// latticeValue hashes an integer lattice point to a deterministic value in
// [-1, 1] (splitmix64 finaliser).
func latticeValue(x, y, seed int64) float64 {
	h := uint64(x)*0x9E3779B97F4A7C15 ^ uint64(y)*0xC2B2AE3D27D4EB4F ^ uint64(seed)*0x165667B19E3779F9
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return float64(h>>11)/float64(1<<53)*2 - 1
}
