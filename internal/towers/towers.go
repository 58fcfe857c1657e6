// Package towers provides a synthetic tower-infrastructure registry standing
// in for the FCC Antenna Structure Registration database and commercial
// tower-company datasets the paper culls to 12,080 towers (§4).
//
// Generation follows the paper's observed structure: towers cluster densely
// around population centers ("each city itself has large numbers of suitable
// towers in its vicinity"), with a sparser rural background along the rest
// of the region. The same culling rules as §4 are then applied: non-rental
// towers below 100 m are dropped, and cells of 0.5° containing more than 50
// towers are randomly down-sampled.
//
// A grid spatial index supports the "all pairs within microwave range"
// queries that dominate Step 1 of the design pipeline.
package towers

import (
	"math"
	"math/rand"
	"sort"

	"cisp/internal/cities"
	"cisp/internal/geo"
	"cisp/internal/units"
)

// Tower is one mast usable for microwave relay.
type Tower struct {
	ID     int
	Loc    geo.Point
	Height float64 // structure height above ground, meters
	Rental bool    // owned by a rental company (usable regardless of height)
}

// CullMaxPerCell is the paper's density cap: "when tower-density exceeds 50
// towers per 0.5° square grid cell, we randomly sample towers".
const CullMaxPerCell = 50

// CullMinHeight is the paper's FCC-database height filter: "we only use
// towers over 100 m height" (rental-company towers are exempt).
const CullMinHeight = 100.0

// cellSize is the culling / indexing grid pitch in degrees.
const cellSize = 0.5

// cityRadius is the spread of a city's urban tower cluster: 40 km.
const cityRadius units.Meters = 40e3

// GenConfig parameterises synthetic registry generation.
type GenConfig struct {
	Seed int64

	// CityTowerScale controls how many towers appear around each city:
	// roughly CityTowerScale * sqrt(population/100k) towers are placed
	// within 40 km (cityRadius) of the center. Default 12.
	CityTowerScale float64

	// RuralPerCell is the expected number of background towers per 0.5°
	// cell across the region bounding box. Default 3.
	RuralPerCell float64
}

func (c *GenConfig) setDefaults() {
	if c.CityTowerScale == 0 {
		c.CityTowerScale = 12
	}
	if c.RuralPerCell == 0 {
		c.RuralPerCell = 3
	}
}

// Registry is an immutable set of towers with a spatial index.
type Registry struct {
	towers []Tower
	cells  map[cellKey][]int // cell -> tower indices
}

type cellKey struct{ X, Y int }

func keyFor(p geo.Point) cellKey {
	return cellKey{X: int(math.Floor(p.Lon / cellSize)), Y: int(math.Floor(p.Lat / cellSize))}
}

// NewRegistry builds a registry (and its index) from a tower list, assigning
// sequential IDs.
func NewRegistry(ts []Tower) *Registry {
	r := &Registry{towers: make([]Tower, len(ts)), cells: make(map[cellKey][]int)}
	copy(r.towers, ts)
	for i := range r.towers {
		r.towers[i].ID = i
		r.cells[keyFor(r.towers[i].Loc)] = append(r.cells[keyFor(r.towers[i].Loc)], i)
	}
	return r
}

// Towers returns the registry's towers. The slice is shared; treat as
// read-only.
func (r *Registry) Towers() []Tower { return r.towers }

// Len returns the number of towers.
func (r *Registry) Len() int { return len(r.towers) }

// Tower returns the tower with the given ID.
func (r *Registry) Tower(id int) Tower { return r.towers[id] }

// WithinRange returns the IDs of towers within dist of p, sorted by
// increasing distance.
func (r *Registry) WithinRange(p geo.Point, dist units.Meters) []int {
	// A degree of latitude is ~111 km; pad the cell scan by one cell.
	cellsOut := int(float64(dist)/(111e3*cellSize)) + 1
	center := keyFor(p)
	type cand struct {
		id int
		d  units.Meters
	}
	var out []cand
	for dx := -cellsOut; dx <= cellsOut; dx++ {
		for dy := -cellsOut; dy <= cellsOut; dy++ {
			k := cellKey{X: center.X + dx, Y: center.Y + dy}
			for _, id := range r.cells[k] {
				if d := p.DistanceTo(r.towers[id].Loc); d <= dist {
					out = append(out, cand{id, d})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].d < out[j].d })
	ids := make([]int, len(out))
	for i, c := range out {
		ids[i] = c.id
	}
	return ids
}

// Pairs calls fn for every unordered tower pair within dist meters of each
// other. Pairs are visited once with i < j.
func (r *Registry) Pairs(dist units.Meters, fn func(i, j int)) {
	for i := range r.towers {
		for _, j := range r.WithinRange(r.towers[i].Loc, dist) {
			if j > i {
				fn(i, j)
			}
		}
	}
}

// Generate synthesises a registry for the given cities within their bounding
// box, then applies the paper's culling rules. The result is deterministic
// for a given config.
func Generate(cfg GenConfig, cs []cities.City) *Registry {
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var ts []Tower

	// Urban clusters around every city.
	for _, city := range cs {
		n := int(cfg.CityTowerScale * math.Sqrt(float64(city.Population)/100_000))
		if n < 4 {
			n = 4
		}
		for i := 0; i < n; i++ {
			bearing := rng.Float64() * 360
			// Square-root radial density: uniform over the disk.
			dist := units.Meters(float64(cityRadius) * math.Sqrt(rng.Float64()))
			loc := city.Loc.Destination(bearing, dist)
			ts = append(ts, Tower{
				Loc:    loc,
				Height: 60 + rng.Float64()*240, // 60–300 m
				Rental: rng.Float64() < 0.5,
			})
		}
	}

	// Rural background over the bounding box.
	minLat, maxLat, minLon, maxLon := bbox(cs)
	for lat := minLat; lat < maxLat; lat += cellSize {
		for lon := minLon; lon < maxLon; lon += cellSize {
			n := poisson(rng, cfg.RuralPerCell)
			for i := 0; i < n; i++ {
				loc := geo.Point{
					Lat: lat + rng.Float64()*cellSize,
					Lon: lon + rng.Float64()*cellSize,
				}
				ts = append(ts, Tower{
					Loc:    loc,
					Height: 80 + rng.Float64()*180, // 80–260 m
					Rental: rng.Float64() < 0.35,
				})
			}
		}
	}

	return NewRegistry(Cull(ts, rng))
}

// Cull applies the paper's §4 filters: drop non-rental towers under 100 m,
// then randomly down-sample any 0.5° cell holding more than 50 towers.
func Cull(ts []Tower, rng *rand.Rand) []Tower {
	var kept []Tower
	for _, t := range ts {
		if t.Rental || t.Height >= CullMinHeight {
			kept = append(kept, t)
		}
	}
	byCell := make(map[cellKey][]Tower)
	for _, t := range kept {
		k := keyFor(t.Loc)
		byCell[k] = append(byCell[k], t)
	}
	// Deterministic order over cells.
	keys := make([]cellKey, 0, len(byCell))
	for k := range byCell {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].X != keys[j].X {
			return keys[i].X < keys[j].X
		}
		return keys[i].Y < keys[j].Y
	})
	var out []Tower
	for _, k := range keys {
		cell := byCell[k]
		if len(cell) > CullMaxPerCell {
			rng.Shuffle(len(cell), func(i, j int) { cell[i], cell[j] = cell[j], cell[i] })
			cell = cell[:CullMaxPerCell]
		}
		out = append(out, cell...)
	}
	return out
}

func bbox(cs []cities.City) (minLat, maxLat, minLon, maxLon float64) {
	minLat, minLon = math.Inf(1), math.Inf(1)
	maxLat, maxLon = math.Inf(-1), math.Inf(-1)
	for _, c := range cs {
		minLat = math.Min(minLat, c.Loc.Lat)
		maxLat = math.Max(maxLat, c.Loc.Lat)
		minLon = math.Min(minLon, c.Loc.Lon)
		maxLon = math.Max(maxLon, c.Loc.Lon)
	}
	return minLat, maxLat, minLon, maxLon
}

// poisson samples a Poisson variate via Knuth's method (adequate for the
// small means used here).
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
