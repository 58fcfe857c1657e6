package traffic

import (
	"math"
	"testing"

	"cisp/internal/cities"
	"cisp/internal/geo"
	"cisp/internal/units"
)

func TestPopulationProduct(t *testing.T) {
	cs := cities.USCenters()[:10]
	m := PopulationProduct(cs)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// The two largest centers should carry the max demand of exactly 1.
	if m[0][1] != 1 {
		t.Fatalf("largest pair demand = %v, want 1 after normalisation", m[0][1])
	}
	for i := range m {
		for j := range m[i] {
			if m[i][j] > 1 {
				t.Fatalf("demand (%d,%d) = %v > 1", i, j, m[i][j])
			}
		}
	}
	// Monotone in population product: pair (0,1) >= pair (8,9).
	if m[8][9] > m[0][1] {
		t.Fatal("smaller cities carry more traffic than larger ones")
	}
}

func TestUniformPairs(t *testing.T) {
	m := UniformPairs(6, []int{1, 3, 5})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m[1][3] != 1 || m[3][5] != 1 || m[1][5] != 1 {
		t.Fatal("DC pairs not uniform")
	}
	if m[0][1] != 0 || m[2][4] != 0 {
		t.Fatal("non-DC pairs carry traffic")
	}
	if m.Total() != 3 {
		t.Fatalf("total = %v, want 3", m.Total())
	}
}

func TestCityToDC(t *testing.T) {
	us := cities.USCenters()[:8]
	dcs := cities.GoogleDCs()
	all := append(append([]cities.City(nil), us...), dcs...)
	cityIdx := make([]int, len(us))
	for i := range us {
		cityIdx[i] = i
	}
	dcIdx := make([]int, len(dcs))
	for i := range dcs {
		dcIdx[i] = len(us) + i
	}
	m := CityToDC(all, cityIdx, dcIdx)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every city has demand to exactly one DC.
	for _, ci := range cityIdx {
		nonzero := 0
		for _, di := range dcIdx {
			if m[ci][di] > 0 {
				nonzero++
			}
		}
		if nonzero != 1 {
			t.Fatalf("city %d connects to %d DCs, want 1", ci, nonzero)
		}
	}
	// No city-city or DC-DC demand.
	for a := 0; a < len(us); a++ {
		for b := a + 1; b < len(us); b++ {
			if m[a][b] != 0 {
				t.Fatal("city-city demand present in DC-edge model")
			}
		}
	}
}

func TestMixProportions(t *testing.T) {
	a := New(4)
	a.Set(0, 1, 5) // total 5
	b := New(4)
	b.Set(2, 3, 2) // total 2
	m := Mix([]float64{4, 3}, a, b)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// After normalisation the components contribute 4 and 3.
	if math.Abs(m[0][1]-4) > 1e-9 || math.Abs(m[2][3]-3) > 1e-9 {
		t.Fatalf("mix = %v / %v, want 4 / 3", m[0][1], m[2][3])
	}
	if math.Abs(m.Total()-7) > 1e-9 {
		t.Fatalf("mix total = %v, want 7", m.Total())
	}
}

func TestScaleToAggregate(t *testing.T) {
	m := New(3)
	m.Set(0, 1, 1)
	m.Set(1, 2, 3)
	s := ScaleToAggregate(m, units.Gbps(100))
	if math.Abs(s.Total()-100) > 1e-9 {
		t.Fatalf("scaled total = %v, want 100", s.Total())
	}
	// Proportions preserved.
	if math.Abs(s[1][2]/s[0][1]-3) > 1e-9 {
		t.Fatal("scaling distorted proportions")
	}
	// Original untouched.
	if m.Total() != 4 {
		t.Fatal("ScaleToAggregate mutated its input")
	}
}

func TestScaleZeroMatrix(t *testing.T) {
	m := New(3)
	s := ScaleToAggregate(m, units.Gbps(100))
	if s.Total() != 0 {
		t.Fatal("scaling a zero matrix should stay zero")
	}
}

func TestPerturbPopulations(t *testing.T) {
	cs := cities.USCenters()[:20]
	p1 := PerturbPopulations(cs, 0.3, 7)
	p2 := PerturbPopulations(cs, 0.3, 7)
	for i := range p1 {
		if p1[i].Population != p2[i].Population {
			t.Fatal("perturbation not deterministic")
		}
		lo := int(float64(cs[i].Population) * 0.699)
		hi := int(float64(cs[i].Population) * 1.301)
		if p1[i].Population < lo || p1[i].Population > hi {
			t.Fatalf("city %d perturbed outside [1-γ,1+γ]: %d not in [%d,%d]",
				i, p1[i].Population, lo, hi)
		}
	}
	// γ=0 is identity.
	p0 := PerturbPopulations(cs, 0, 7)
	for i := range p0 {
		if p0[i].Population != cs[i].Population {
			t.Fatal("γ=0 changed populations")
		}
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	m := New(3)
	m[0][1] = 5 // set without mirror
	if err := m.Validate(); err == nil {
		t.Fatal("asymmetric matrix validated")
	}
}

func TestMixPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mix([]float64{1}, New(2), New(2))
}

// TestApportion pins the largest-remainder rule every flow population
// rounds through.
func TestApportion(t *testing.T) {
	for _, tc := range []struct {
		name    string
		total   int
		weights []float64
		want    []int
	}{
		{"exact quotas", 10, []float64{3, 2, 5}, []int{3, 2, 5}},
		{"largest remainder", 10, []float64{0.45, 0.35, 0.2}, []int{5, 3, 2}},
		{"ties to the lower index", 2, []float64{1, 1, 1}, []int{1, 1, 0}},
		{"tie across a whole part", 2, []float64{1, 2, 1}, []int{1, 1, 0}},
		{"larger remainder beats lower index", 1, []float64{1, 3}, []int{0, 1}},
		{"zero weights get nothing", 5, []float64{0, 1, 0, 1, 0}, []int{0, 3, 0, 2, 0}},
		{"negative weights get nothing", 3, []float64{-4, 1, 2}, []int{0, 1, 2}},
		{"zero total", 0, []float64{1, 2}, []int{0, 0}},
		{"negative total", -3, []float64{1, 2}, []int{0, 0}},
		{"no positive weight", 7, []float64{0, 0}, []int{0, 0}},
		{"nil weights", 7, nil, []int{}},
	} {
		got := Apportion(tc.total, tc.weights)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: got %v, want %v", tc.name, got, tc.want)
			}
		}
	}
	// Exact totals over awkward weights and sizes.
	weights := []float64{0.1, 1.0 / 3, 2.0 / 7, 0, 1e-9, 0.277}
	for _, total := range []int{1, 2, 3, 17, 1000, 123_457} {
		sum := 0
		for _, n := range Apportion(total, weights) {
			sum += n
		}
		if sum != total {
			t.Fatalf("total %d apportioned %d", total, sum)
		}
	}
}

func TestFlowCountsExactTotal(t *testing.T) {
	m := New(4)
	m.Set(0, 1, 4)
	m.Set(0, 2, 3)
	m.Set(1, 3, 3)
	for _, total := range []int{1, 10, 97, 100_000} {
		pairs := FlowCounts(m, total)
		sum := 0
		for _, p := range pairs {
			if p.I >= p.J {
				t.Fatalf("pair not ordered: %+v", p)
			}
			sum += p.Count
		}
		if sum != total {
			t.Fatalf("total=%d apportioned %d", total, sum)
		}
	}
}

func TestFlowCountsProportional(t *testing.T) {
	m := New(3)
	m.Set(0, 1, 7)
	m.Set(1, 2, 3)
	pairs := FlowCounts(m, 1000)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
	if pairs[0].Count != 700 || pairs[1].Count != 300 {
		t.Fatalf("want 700/300 split, got %v", pairs)
	}
}

func TestFlowCountsEdgeCases(t *testing.T) {
	if FlowCounts(New(3), 100) != nil {
		t.Fatal("zero matrix should yield no pairs")
	}
	m := New(3)
	m.Set(0, 1, 1)
	if FlowCounts(m, 0) != nil {
		t.Fatal("zero total should yield no pairs")
	}
	// Fewer flows than pairs: zero-count pairs are dropped.
	big := New(10)
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			big.Set(i, j, 1)
		}
	}
	pairs := FlowCounts(big, 3)
	sum := 0
	for _, p := range pairs {
		if p.Count <= 0 {
			t.Fatalf("zero-count pair emitted: %+v", p)
		}
		sum += p.Count
	}
	if sum != 3 {
		t.Fatalf("apportioned %d, want 3", sum)
	}
}

func TestFlowCountsDeterministic(t *testing.T) {
	m := New(5)
	m.Set(0, 1, 0.31)
	m.Set(0, 2, 0.27)
	m.Set(1, 3, 0.22)
	m.Set(2, 4, 0.2)
	a := FlowCounts(m, 12345)
	b := FlowCounts(m, 12345)
	if len(a) != len(b) {
		t.Fatal("length differs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestHotspot(t *testing.T) {
	m := New(4)
	m.Set(0, 1, 1)
	m.Set(0, 2, 2)
	m.Set(1, 3, 3)
	h := Hotspot(m, 1, 8, 42)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	spiked := 0
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			switch {
			case h[i][j] == m[i][j]*8 && m[i][j] > 0:
				spiked++
			case h[i][j] != m[i][j]:
				t.Fatalf("entry (%d,%d) = %v, want %v or %v", i, j, h[i][j], m[i][j], m[i][j]*8)
			}
		}
	}
	if spiked != 1 {
		t.Fatalf("spiked %d pairs, want 1", spiked)
	}
	// Deterministic in seed; a different seed may pick a different pair.
	h2 := Hotspot(m, 1, 8, 42)
	for i := range h {
		for j := range h[i] {
			if h[i][j] != h2[i][j] {
				t.Fatalf("Hotspot not deterministic at (%d,%d)", i, j)
			}
		}
	}
	// More pairs than positives: every positive entry spikes, zeros stay.
	all := Hotspot(m, 10, 2, 1)
	if all.Total() != 2*m.Total() {
		t.Fatalf("full spike total = %v, want %v", all.Total(), 2*m.Total())
	}
	if all[2][3] != 0 {
		t.Fatal("zero entry spiked")
	}
}

func TestGravityMatchesPopulationProduct(t *testing.T) {
	cs := []cities.City{
		{Name: "a", Population: 100, Loc: geo.Point{Lat: 40, Lon: -100}},
		{Name: "b", Population: 50, Loc: geo.Point{Lat: 41, Lon: -90}},
		{Name: "c", Population: 10, Loc: geo.Point{Lat: 42, Lon: -80}},
	}
	w := make([]float64, len(cs))
	for i, c := range cs {
		w[i] = float64(c.Population)
	}
	g := Gravity(w)
	p := PopulationProduct(cs)
	for i := range g {
		for j := range g[i] {
			if math.Abs(g[i][j]-p[i][j]) > 1e-12 {
				t.Fatalf("Gravity(pops) != PopulationProduct at (%d,%d): %v vs %v", i, j, g[i][j], p[i][j])
			}
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if Gravity([]float64{0, 0}).Total() != 0 {
		t.Fatal("zero weights should yield zero demand")
	}
}

func TestWeightedNearest(t *testing.T) {
	cs := []cities.City{
		{Name: "west", Loc: geo.Point{Lat: 40, Lon: -120}},
		{Name: "mid", Loc: geo.Point{Lat: 40, Lon: -100}},
		{Name: "east", Loc: geo.Point{Lat: 40, Lon: -80}},
		{Name: "sink-w", Loc: geo.Point{Lat: 40, Lon: -118}},
		{Name: "sink-e", Loc: geo.Point{Lat: 40, Lon: -82}},
	}
	w := []float64{3e9, 2e9, 1e9, 5e9, 0}
	m := WeightedNearest(cs, w, []int{3, 4})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m[0][3] != 3e9 {
		t.Fatalf("west should send its full 3 Gbps to sink-w, got %v", m[0][3])
	}
	if m[2][4] != 1e9 {
		t.Fatalf("east should send to sink-e, got %v", m[2][4])
	}
	if m[1][3] == 0 && m[1][4] == 0 {
		t.Fatal("mid sends nowhere")
	}
	// A site that is itself a sink generates no backbone demand, whatever
	// its weight.
	for j := range cs {
		if m[3][j] != 0 && j != 0 && j != 1 && j != 2 {
			t.Fatalf("sink-w should not originate demand, sends to %d", j)
		}
	}
	row := 0.0
	for _, v := range m[3] {
		row += v
	}
	if row != m[0][3]+m[1][3] && m[1][3] == 0 {
		t.Fatalf("sink-w row should only carry inbound demand")
	}
}
