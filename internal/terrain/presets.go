package terrain

import "cisp/internal/geo"

// ContiguousUS returns the synthetic terrain standing in for the NASA
// SRTM/NED coverage of the contiguous United States. Range geometries are
// coarse tracings of the real crests; heights are above the base surface.
func ContiguousUS(seed int64) *Model {
	return New(seed, usRidges(), &usBase, 90, 0.7, 28)
}

func usRidges() []Ridge {
	return []Ridge{
		{ // Rocky Mountains: Montana down the Front Range into New Mexico.
			Crest: []geo.Point{
				{Lat: 48.8, Lon: -114.2}, {Lat: 46.0, Lon: -112.5},
				{Lat: 43.8, Lon: -110.0}, {Lat: 40.5, Lon: -106.5},
				{Lat: 38.5, Lon: -106.0}, {Lat: 35.8, Lon: -105.8},
			},
			Height: 2100, Width: 140e3,
		},
		{ // Sierra Nevada.
			Crest: []geo.Point{
				{Lat: 40.3, Lon: -121.2}, {Lat: 38.0, Lon: -119.3},
				{Lat: 36.3, Lon: -118.3},
			},
			Height: 2300, Width: 55e3,
		},
		{ // Cascades.
			Crest: []geo.Point{
				{Lat: 48.8, Lon: -121.4}, {Lat: 45.5, Lon: -121.8},
				{Lat: 43.0, Lon: -122.1}, {Lat: 41.2, Lon: -122.3},
			},
			Height: 1700, Width: 65e3,
		},
		{ // Wasatch / central Utah ranges.
			Crest: []geo.Point{
				{Lat: 41.5, Lon: -111.8}, {Lat: 39.5, Lon: -111.5},
			},
			Height: 1500, Width: 60e3,
		},
		{ // Appalachians: New England down into Georgia.
			Crest: []geo.Point{
				{Lat: 44.2, Lon: -71.5}, {Lat: 42.0, Lon: -74.5},
				{Lat: 40.5, Lon: -77.5}, {Lat: 38.0, Lon: -79.8},
				{Lat: 36.0, Lon: -81.7}, {Lat: 34.8, Lon: -84.0},
			},
			Height: 850, Width: 110e3,
		},
	}
}

// usBase is the smooth base surface of the contiguous US, along longitude:
// near sea level on the coasts, the interior plains rising westward from
// the Mississippi to the Colorado high plains (~1600 m), and the Great
// Basin plateau in the west.
var usBase = Base{Pieces: []Piece{
	{Above: -80, At: 100},                                 // eastern seaboard / piedmont
	{Above: -95, At: 150, X0: -80, Span: 15, Rise: 150},   // interior lowlands: 150 → 300 m
	{Above: -105, At: 300, X0: -95, Span: 10, Rise: 1300}, // Great Plains ramp: 300 → 1600 m
	{Above: -119, At: 1400},                               // intermountain plateau / Great Basin
	{At: 150},                                             // Pacific coastal states beyond the Sierra/Cascade crest
}}

// Europe returns the synthetic terrain for the European cISP study (Fig 8).
func Europe(seed int64) *Model {
	return New(seed, europeRidges(), &europeBase, 80, 0.6, 25)
}

func europeRidges() []Ridge {
	return []Ridge{
		{ // Alps.
			Crest: []geo.Point{
				{Lat: 44.2, Lon: 7.0}, {Lat: 45.9, Lon: 7.7},
				{Lat: 46.5, Lon: 9.8}, {Lat: 47.1, Lon: 11.6},
				{Lat: 46.5, Lon: 13.8},
			},
			Height: 2500, Width: 110e3,
		},
		{ // Pyrenees.
			Crest: []geo.Point{
				{Lat: 43.0, Lon: -1.5}, {Lat: 42.6, Lon: 0.7},
				{Lat: 42.4, Lon: 2.4},
			},
			Height: 1900, Width: 55e3,
		},
		{ // Carpathians.
			Crest: []geo.Point{
				{Lat: 49.3, Lon: 20.0}, {Lat: 48.0, Lon: 24.0},
				{Lat: 46.0, Lon: 25.3}, {Lat: 45.4, Lon: 24.0},
			},
			Height: 1300, Width: 90e3,
		},
		{ // Apennines.
			Crest: []geo.Point{
				{Lat: 44.2, Lon: 9.9}, {Lat: 42.5, Lon: 13.3},
				{Lat: 40.8, Lon: 15.3}, {Lat: 39.2, Lon: 16.3},
			},
			Height: 1200, Width: 55e3,
		},
		{ // Scandinavian mountains.
			Crest: []geo.Point{
				{Lat: 59.5, Lon: 7.5}, {Lat: 62.0, Lon: 9.5},
				{Lat: 65.0, Lon: 14.0},
			},
			Height: 1300, Width: 95e3,
		},
		{ // Dinaric Alps.
			Crest: []geo.Point{
				{Lat: 45.8, Lon: 14.8}, {Lat: 43.9, Lon: 17.5},
				{Lat: 42.6, Lon: 19.8},
			},
			Height: 1300, Width: 70e3,
		},
	}
}

// europeBase, along latitude: low coastal plains, a modest
// central-European upland belt.
var europeBase = Base{Lat: true, Pieces: []Piece{
	{Above: 52, At: 60},  // North European Plain and Scandinavia lowlands
	{Above: 47, At: 250}, // central uplands
	{Above: 43, At: 400}, // alpine forelands / Iberia meseta
	{At: 250},
}}
