package weather

import (
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"cisp/internal/cities"
	"cisp/internal/design"
	"cisp/internal/fiber"
	"cisp/internal/geo"
	"cisp/internal/linkbuild"
	"cisp/internal/los"
	"cisp/internal/netsim"
	"cisp/internal/parallel"
	"cisp/internal/terrain"
	"cisp/internal/towers"
	"cisp/internal/traffic"
	"cisp/internal/units"
)

func TestSpecificAttenuationMonotone(t *testing.T) {
	f := func(r1, r2 float64) bool {
		a := math.Mod(math.Abs(r1), 150)
		b := math.Mod(math.Abs(r2), 150)
		if a > b {
			a, b = b, a
		}
		return SpecificAttenuation(a, 11) <= SpecificAttenuation(b, 11)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpecificAttenuationAnchors(t *testing.T) {
	// At 11 GHz and 50 mm/h the ITU power law gives roughly 2 dB/km
	// (k≈0.017, α≈1.22 → 0.017·50^1.22 ≈ 2).
	got := SpecificAttenuation(50, 11)
	if got < 1 || got > 4 {
		t.Fatalf("γ(50mm/h, 11GHz) = %v dB/km, want ~2", got)
	}
	if SpecificAttenuation(0, 11) != 0 {
		t.Fatal("zero rain must give zero attenuation")
	}
	// Higher frequency attenuates more.
	if SpecificAttenuation(50, 18) <= SpecificAttenuation(50, 6) {
		t.Fatal("attenuation should grow with frequency")
	}
}

func TestFieldDeterministic(t *testing.T) {
	g := &Generator{Seed: 4, MinLat: 30, MaxLat: 45, MinLon: -110, MaxLon: -80}
	a := g.FieldAt(100, 5)
	b := g.FieldAt(100, 5)
	if len(a.Cells) != len(b.Cells) || len(a.Bands) != len(b.Bands) {
		t.Fatal("field generation not deterministic")
	}
	p := geo.Point{Lat: 38, Lon: -95}
	if a.RainRate(p) != b.RainRate(p) {
		t.Fatal("rain rate not deterministic")
	}
}

func TestStormCellProfile(t *testing.T) {
	f := &Field{Cells: []StormCell{{
		Center: geo.Point{Lat: 40, Lon: -100}, Radius: 20e3, PeakMM: 60,
	}}}
	at := f.RainRate(geo.Point{Lat: 40, Lon: -100})
	near := f.RainRate(geo.Point{Lat: 40.2, Lon: -100})
	far := f.RainRate(geo.Point{Lat: 43, Lon: -100})
	if math.Abs(at-60) > 1e-9 {
		t.Fatalf("peak rain = %v, want 60", at)
	}
	if !(near < at && near > 0) {
		t.Fatalf("rain at 22km = %v, want between 0 and peak", near)
	}
	if far != 0 {
		t.Fatalf("rain 330km away = %v, want 0", far)
	}
}

func TestFrontalBand(t *testing.T) {
	f := &Field{Bands: []FrontalBand{{
		A: geo.Point{Lat: 35, Lon: -100}, B: geo.Point{Lat: 45, Lon: -100},
		Width: 50e3, RateMM: 15,
	}}}
	if r := f.RainRate(geo.Point{Lat: 40, Lon: -100}); r != 15 {
		t.Fatalf("in-band rain = %v, want 15", r)
	}
	if r := f.RainRate(geo.Point{Lat: 40, Lon: -95}); r != 0 {
		t.Fatalf("rain 400km off-band = %v, want 0", r)
	}
}

func TestHopFailsUnderHeavyRain(t *testing.T) {
	// A 50 km hop through a 100 mm/h storm core: γ ≈ 0.017·100^1.22 ≈ 5
	// dB/km → way beyond any margin.
	f := &Field{Cells: []StormCell{{
		Center: geo.Point{Lat: 40, Lon: -100}, Radius: 60e3, PeakMM: 100,
	}}}
	a := geo.Point{Lat: 40, Lon: -100.3}
	b := geo.Point{Lat: 40, Lon: -99.7}
	if !f.HopFails(a, b, 11, DefaultFadeMargin) {
		t.Fatal("hop through storm core should fail")
	}
	dry := &Field{}
	if dry.HopFails(a, b, 11, DefaultFadeMargin) {
		t.Fatal("dry hop failed")
	}
}

func TestPathAttenuationAdditive(t *testing.T) {
	// Attenuation over a longer path through uniform rain grows ~linearly.
	f := &Field{Bands: []FrontalBand{{
		A: geo.Point{Lat: 20, Lon: -100}, B: geo.Point{Lat: 60, Lon: -100},
		Width: 500e3, RateMM: 20,
	}}}
	a := geo.Point{Lat: 40, Lon: -100}
	short := f.PathAttenuation(a, geo.Point{Lat: 40.2, Lon: -100}, 11, 1000)
	long := f.PathAttenuation(a, geo.Point{Lat: 40.4, Lon: -100}, 11, 1000)
	if ratio := float64(long / short); math.Abs(ratio-2) > 0.1 {
		t.Fatalf("attenuation ratio = %v, want ~2 for double distance", ratio)
	}
}

var fixtureOnce struct {
	sync.Once
	top   *design.Topology
	links *linkbuild.Links
}

// yearFixture builds (once) the midwest 8-city topology shared by the
// year-analysis tests.
func yearFixture(t testing.TB) (*design.Topology, *linkbuild.Links) {
	t.Helper()
	fixtureOnce.Do(func() {
		all := cities.USCenters()
		names := []string{"Chicago, IL", "Indianapolis, IN", "St. Louis, MO", "Columbus, OH", "Detroit, MI", "Milwaukee, WI", "Louisville, KY", "Cincinnati, OH"}
		var cs []cities.City
		for _, name := range names {
			c, _ := cities.ByName(all, name)
			cs = append(cs, c)
		}
		reg := towers.Generate(towers.GenConfig{Seed: 3, RuralPerCell: 2, CityTowerScale: 12}, cs)
		ev := los.NewEvaluator(terrain.Flat(), los.DefaultParams())
		links := linkbuild.Build(cs, reg, ev)
		fn := fiber.Synthesize(fiber.Config{Seed: 5}, cs)
		n := len(cs)
		mk := func() [][]float64 {
			m := make([][]float64, n)
			for i := range m {
				m[i] = make([]float64, n)
			}
			return m
		}
		p := &design.Problem{N: n, Budget: 200, Traffic: traffic.PopulationProduct(cs),
			Geodesic: mk(), MW: mk(), MWCost: mk(), FiberLat: mk()}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				p.Geodesic[i][j] = float64(cs[i].Loc.DistanceTo(cs[j].Loc))
				p.MW[i][j] = float64(links.MWDist(i, j))
				p.MWCost[i][j] = float64(links.TowerCount(i, j))
				p.FiberLat[i][j] = float64(fn.LatencyDist(i, j))
			}
		}
		fixtureOnce.top = design.Greedy(p, design.GreedyOptions{})
		fixtureOnce.links = links
	})
	return fixtureOnce.top, fixtureOnce.links
}

var yearOnce struct {
	sync.Once
	an *YearAnalysis
}

func yearAnalysis(t testing.TB) *YearAnalysis {
	t.Helper()
	yearOnce.Do(func() {
		top, links := yearFixture(t)
		gen := &Generator{Seed: 11, MinLat: 37, MaxLat: 43, MinLon: -92, MaxLon: -81}
		yearOnce.an = AnalyzeYear(top, links, gen, Config{Days: 120, Seed: 2})
	})
	return yearOnce.an
}

func TestYearAnalysisShape(t *testing.T) {
	an := yearAnalysis(t)
	if len(an.Best) == 0 {
		t.Fatal("no pairs analyzed")
	}
	for i := range an.Best {
		if an.Best[i] > an.P99[i]+1e-9 || an.P99[i] > an.Worst[i]+1e-9 {
			t.Fatalf("pair %d: ordering violated best=%v p99=%v worst=%v",
				i, an.Best[i], an.P99[i], an.Worst[i])
		}
		if an.Worst[i] > an.Fiber[i]+1e-9 {
			t.Fatalf("pair %d: weather stretch %v exceeds fiber fallback %v",
				i, an.Worst[i], an.Fiber[i])
		}
		if an.Best[i] < 1 {
			t.Fatalf("pair %d: best stretch %v < 1", i, an.Best[i])
		}
	}
}

func TestYearAnalysisFig7Property(t *testing.T) {
	// The paper's headline: 99th-percentile latencies are nearly the best,
	// and even the worst weather beats fiber by a wide margin in the median.
	an := yearAnalysis(t)
	mBest, mP99 := Median(an.Best), Median(an.P99)
	if mP99 > mBest*1.35 {
		t.Errorf("median 99th-pctile stretch %v too far above best %v", mP99, mBest)
	}
	mWorst, mFiber := Median(an.Worst), Median(an.Fiber)
	if mWorst >= mFiber {
		t.Errorf("median worst-case %v not better than fiber %v", mWorst, mFiber)
	}
	t.Logf("median stretch: best %.3f, p99 %.3f, worst %.3f, fiber %.3f",
		mBest, mP99, mWorst, mFiber)
}

func TestHFTTraceStatistics(t *testing.T) {
	trace := HFTTrace(1)
	if len(trace) != 2743 {
		t.Fatalf("trace length %d, want 2743 minutes", len(trace))
	}
	sum := 0.0
	s := append([]float64(nil), trace...)
	sort.Float64s(s)
	for _, v := range trace {
		if v < 0 || v > 1 {
			t.Fatalf("loss %v outside [0,1]", v)
		}
		sum += v
	}
	mean := sum / float64(len(trace))
	median := s[len(s)/2]
	// Paper: mean 16.1%, median 1.4%.
	if mean < 0.10 || mean > 0.22 {
		t.Errorf("trace mean loss %v, want ≈0.161", mean)
	}
	if median < 0.005 || median > 0.03 {
		t.Errorf("trace median loss %v, want ≈0.014", median)
	}
	t.Logf("HFT trace: mean %.3f (paper 0.161), median %.3f (paper 0.014)", mean, median)
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if !math.IsNaN(Median(nil)) {
		t.Fatal("median of empty should be NaN")
	}
	if m := Median([]float64{7}); m != 7 {
		t.Fatalf("median of single sample = %v, want 7", m)
	}
	if m := Median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Fatalf("median of even-length slice = %v, want 2.5", m)
	}
}

// TestQuantileEdges pins the percentile AnalyzeYear reports as P99 at the
// edges of its input: empty, a single sample, and the extreme quantiles.
func TestQuantileEdges(t *testing.T) {
	if !math.IsNaN(netsim.Percentile(nil, 50)) {
		t.Fatal("quantile of empty should be NaN")
	}
	single := []float64{42}
	for _, p := range []float64{0, 50, 99, 100} {
		if v := netsim.Percentile(single, p); v != 42 {
			t.Fatalf("p%v of single sample = %v, want 42", p, v)
		}
	}
	s := []float64{1, 2, 3, 4, 5}
	if v := netsim.Percentile(s, 0); v != 1 {
		t.Fatalf("p0 should be the minimum, got %v", v)
	}
	if v := netsim.Percentile(s, 100); v != 5 {
		t.Fatalf("p100 should be the maximum, got %v", v)
	}
	if v := netsim.Percentile(s, 50); v != 3 {
		t.Fatalf("p50 = %v, want 3", v)
	}
}

func TestCapacityFraction(t *testing.T) {
	const m = DefaultFadeMargin
	if f := CapacityFraction(0, m); f != 1 {
		t.Fatalf("clear sky fraction = %v, want 1", f)
	}
	if f := CapacityFraction(-1, m); f != 1 {
		t.Fatalf("negative attenuation fraction = %v, want 1", f)
	}
	if f := CapacityFraction(m+0.001, m); f != 0 {
		t.Fatalf("past-margin fraction = %v, want 0 (outage)", f)
	}
	if f := CapacityFraction(m, m); f != float64(acmMinBits)/acmMaxBits {
		t.Fatalf("at-margin fraction = %v, want QPSK floor %v", f, float64(acmMinBits)/acmMaxBits)
	}
	// Monotone non-increasing across the ladder.
	prev := 1.0
	for a := units.DB(0); a <= m+3; a += 0.25 {
		f := CapacityFraction(a, m)
		if f > prev+1e-12 {
			t.Fatalf("fraction increased: f(%v)=%v after %v", a, f, prev)
		}
		prev = f
	}
	// A mid-margin fade must land strictly between outage and clear sky.
	if f := CapacityFraction(m/2, m); f <= 0 || f >= 1 {
		t.Fatalf("half-margin fraction = %v, want graded value in (0,1)", f)
	}
}

// TestConditionsMatchHopFails: the graded model's binary verdict must agree
// with the per-hop HopFails rule on the real fixture, graded over its
// tower hops and as a backbone of one site-to-site hop per built link.
// The generated mid-summer field fails no link, so a cell parked over the
// first built link adds failed and degraded ones.
func TestConditionsMatchHopFails(t *testing.T) {
	top, links := yearFixture(t)
	bb := &netsim.Backbone{Sites: links.Cities, Nodes: len(links.Cities)}
	for _, l := range top.Built {
		bb.Mw = append(bb.Mw, netsim.TopoLink{A: l.I, B: l.J})
	}
	gen := &Generator{Seed: 11, MinLat: 37, MaxLat: 43, MinLon: -92, MaxLon: -81}
	a, b := links.Cities[top.Built[0].I].Loc, links.Cities[top.Built[0].J].Loc
	parked := &Field{Cells: []StormCell{{
		Center: geo.Point{Lat: (a.Lat + b.Lat) / 2, Lon: (a.Lon + b.Lon) / 2},
		Radius: 40e3,
		PeakMM: 40,
	}}}
	for _, tc := range []struct {
		name string
		lg   *LinkGeometry
	}{
		{"tower hops", NewLinkGeometry(top, links)},
		{"backbone", NewBackboneGeometry(bb)},
	} {
		lg := tc.lg
		if lg.NumLinks() != len(top.Built) {
			t.Fatalf("%s: geometry covers %d links, topology built %d", tc.name, lg.NumLinks(), len(top.Built))
		}
		failed := 0
		for _, field := range []*Field{gen.FieldAt(200, 30), parked} {
			conds := lg.Conditions(field, nil)
			for li, hops := range lg.hops {
				anyFail := false
				for _, h := range hops {
					if field.HopFails(h[0], h[1], geo.DefaultFrequencyGHz, DefaultFadeMargin) {
						anyFail = true
						break
					}
				}
				if anyFail != conds[li].Failed {
					t.Fatalf("%s link %d: HopFails says %v, Conditions says %v", tc.name, li, anyFail, conds[li].Failed)
				}
				if conds[li].Failed && conds[li].CapFrac != 0 {
					t.Fatalf("%s link %d: failed but capacity fraction %v", tc.name, li, conds[li].CapFrac)
				}
				if !conds[li].Failed && conds[li].CapFrac <= 0 {
					t.Fatalf("%s link %d: alive but capacity fraction %v", tc.name, li, conds[li].CapFrac)
				}
				if conds[li].Failed {
					failed++
				}
			}
		}
		if failed == 0 {
			t.Fatalf("%s: no link failed, so the verdict went unchecked", tc.name)
		}
	}
}

// TestAnalyzeYearParallelDeterminism: the dynamic engine's determinism
// contract — a wide pool must reproduce the one-worker run bit-for-bit on
// every output field, across multiple seeds (mirroring
// internal/design/parallel_test.go).
func TestAnalyzeYearParallelDeterminism(t *testing.T) {
	top, links := yearFixture(t)
	sameF64 := func(label string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d]: sequential %v, parallel %v", label, i, a[i], b[i])
			}
		}
	}
	sameInt := func(label string, a, b []int) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d]: sequential %v, parallel %v", label, i, a[i], b[i])
			}
		}
	}
	for seed := int64(0); seed < 2; seed++ {
		gen := &Generator{Seed: 20 + seed, MinLat: 37, MaxLat: 43, MinLon: -92, MaxLon: -81}
		cfg := Config{Days: 90, Seed: 5 + seed}

		prev := parallel.SetWorkers(1)
		seq := AnalyzeYear(top, links, gen, cfg)
		parallel.SetWorkers(8)
		par := AnalyzeYear(top, links, gen, cfg)
		parallel.SetWorkers(prev)

		sameF64("Best", seq.Best, par.Best)
		sameF64("P99", seq.P99, par.P99)
		sameF64("Worst", seq.Worst, par.Worst)
		sameF64("Fiber", seq.Fiber, par.Fiber)
		sameF64("MeanCapacityPerDay", seq.MeanCapacityPerDay, par.MeanCapacityPerDay)
		sameInt("FailedLinksPerDay", seq.FailedLinksPerDay, par.FailedLinksPerDay)
		sameInt("DegradedLinksPerDay", seq.DegradedLinksPerDay, par.DegradedLinksPerDay)
		sameInt("Intervals", seq.Intervals, par.Intervals)
	}
}

// TestAnalyzeYearGradedStats: the graded record must be shaped and bounded
// like a real fleet log.
func TestAnalyzeYearGradedStats(t *testing.T) {
	an := yearAnalysis(t)
	days := len(an.FailedLinksPerDay)
	if len(an.DegradedLinksPerDay) != days || len(an.MeanCapacityPerDay) != days || len(an.Intervals) != days {
		t.Fatalf("per-day series disagree on length: failed %d, degraded %d, cap %d, intervals %d",
			days, len(an.DegradedLinksPerDay), len(an.MeanCapacityPerDay), len(an.Intervals))
	}
	sawDegraded := false
	for day := 0; day < days; day++ {
		if iv := an.Intervals[day]; iv < 0 || iv > 47 {
			t.Fatalf("day %d: interval %d outside [0,47]", day, iv)
		}
		if c := an.MeanCapacityPerDay[day]; c < 0 || c > 1 {
			t.Fatalf("day %d: mean capacity %v outside [0,1]", day, c)
		}
		if an.FailedLinksPerDay[day] > 0 && an.MeanCapacityPerDay[day] >= 1 {
			t.Fatalf("day %d: %d failures but full fleet capacity", day, an.FailedLinksPerDay[day])
		}
		if an.DegradedLinksPerDay[day] > 0 {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Fatal("120 midwest days without a single degraded link — graded model is inert")
	}
}
