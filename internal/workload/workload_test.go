package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"cisp/internal/cities"
	"cisp/internal/geo"
	"cisp/internal/netsim"
)

func TestActivityCurve(t *testing.T) {
	for h := 0.0; h < 48; h += 0.25 {
		a := Activity(h)
		if a < 0.1 || a > 1.0 {
			t.Fatalf("Activity(%v) = %v outside [0.1, 1]", h, a)
		}
	}
	if Activity(20) != 1.0 {
		t.Fatalf("evening peak = %v, want 1.0", Activity(20))
	}
	if Activity(4) >= Activity(20) {
		t.Fatal("overnight trough not below evening peak")
	}
	// Wrap: hour 25 is hour 1, negative hours wrap backwards.
	if Activity(25) != Activity(1) || Activity(-1) != Activity(23) {
		t.Fatal("curve does not wrap at 24h")
	}
}

func TestActiveUsersTimezoneStagger(t *testing.T) {
	sites := []cities.City{
		{Name: "East", Loc: geo.Point{Lat: 40, Lon: -75}, Population: 1_000_000},
		{Name: "West", Loc: geo.Point{Lat: 40, Lon: -120}, Population: 1_000_000},
		{Name: "DC", Loc: geo.Point{Lat: 39, Lon: -95}, Population: 0},
	}
	// 00:00 UTC: East is at local 19:00 (evening peak), West at 16:00
	// (daytime plateau) — same population, more active users in the East.
	users := ActiveUsers(sites, 0.6, 0)
	if users[0] <= users[1] {
		t.Fatalf("east %v not ahead of west %v at 00:00 UTC", users[0], users[1])
	}
	if users[2] != 0 {
		t.Fatal("data-center site drew users")
	}
	for i, u := range users {
		if u < 0 || u > 600_000 {
			t.Fatalf("site %d: %v users outside [0, pop×pen]", i, u)
		}
	}
}

func TestDefaultMix(t *testing.T) {
	m := DefaultMix()
	if !m.Valid() {
		t.Fatal("DefaultMix is not Valid")
	}
	var shares float64
	for _, p := range m {
		shares += p.Share
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1", shares)
	}
	// Gaming pins the paper's §6.6 per-player rate exactly.
	if m[Gaming].RateBps != 10_000 {
		t.Fatalf("gaming rate %v bps, want 10000", m[Gaming].RateBps)
	}
	// Web derives from the corpus: a page per 30 s lands well inside
	// broadband reality (tens of kbps to a few Mbps).
	if m[Web].RateBps < 10e3 || m[Web].RateBps > 5e6 {
		t.Fatalf("web rate %v bps outside sanity band", m[Web].RateBps)
	}
	if m[Media].FlowBytes <= m[Gaming].FlowBytes {
		t.Fatal("media segments not larger than gaming exchanges")
	}
}

func TestPlaceSinksWeightedMedian(t *testing.T) {
	// Five sites on a line; almost all weight at site 3 — the first sink
	// must land there.
	var sites []cities.City
	for i := 0; i < 5; i++ {
		sites = append(sites, cities.City{Loc: geo.Point{Lat: 40, Lon: -100 + 3*float64(i)}, Population: 1})
	}
	w := []float64{1, 1, 1, 100, 1}
	s1 := PlaceSinks(sites, w, 1)
	if len(s1) != 1 || s1[0] != 3 {
		t.Fatalf("PlaceSinks k=1 = %v, want [3]", s1)
	}
	// k=2 adds coverage for the far end; result stays sorted and unique.
	s2 := PlaceSinks(sites, w, 2)
	if len(s2) != 2 || s2[0] == s2[1] {
		t.Fatalf("PlaceSinks k=2 = %v", s2)
	}
	if s2[0] > s2[1] {
		t.Fatalf("sinks not sorted: %v", s2)
	}
	// Clamp k to the site count; empty when k <= 0.
	if got := PlaceSinks(sites, w, 99); len(got) != 5 {
		t.Fatalf("k>n placed %d sinks, want 5", len(got))
	}
	if got := PlaceSinks(sites, w, 0); got != nil {
		t.Fatalf("k=0 placed %v", got)
	}
}

func TestCompileDiurnal(t *testing.T) {
	b := testBackbone()
	c, err := Compile(Spec{Kind: Diurnal}, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalUsers <= 0 || c.OfferedGbps <= 0 {
		t.Fatalf("users=%v offered=%v", c.TotalUsers, c.OfferedGbps)
	}
	if c.Schedule != nil {
		t.Fatal("diurnal scenario compiled a failure schedule")
	}
	// Default sinks are the substrate's data centers.
	if len(c.Sinks) != 1 || c.Sinks[0] != 4 {
		t.Fatalf("sinks = %v, want the DC site [4]", c.Sinks)
	}
	for a := App(0); a < NumApps; a++ {
		if err := c.PerApp[a].Validate(); err != nil {
			t.Fatalf("%s matrix: %v", a, err)
		}
		if c.PerApp[a].Total() <= 0 {
			t.Fatalf("%s matrix has no demand", a)
		}
	}
}

func TestCompileFlashCrowdRedirectsMedia(t *testing.T) {
	b := testBackbone()
	c, err := Compile(Spec{Kind: FlashCrowd, EventSite: 1}, b)
	if err != nil {
		t.Fatal(err)
	}
	m := c.PerApp[Media]
	for i := 0; i < m.N(); i++ {
		for j := i + 1; j < m.N(); j++ {
			if m[i][j] > 0 && i != 1 && j != 1 {
				t.Fatalf("media demand %v between %d and %d bypasses the event origin", m[i][j], i, j)
			}
		}
	}
	// The surge makes the flash crowd heavier than the same snapshot's
	// plain media load.
	plain, err := Compile(Spec{Kind: Diurnal}, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.PerApp[Media].Total() <= plain.PerApp[Media].Total() {
		t.Fatal("flash crowd did not surge media demand")
	}
}

func TestCompileDisasterSchedule(t *testing.T) {
	b := testBackbone()
	c, err := Compile(Spec{Kind: Disaster, EventSite: 0}, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.Schedule == nil {
		t.Fatal("disaster compiled no failure schedule")
	}
	if c.Schedule.NumLinks != len(b.Mw)+len(b.Fiber) {
		t.Fatalf("schedule covers %d links, hybrid has %d", c.Schedule.NumLinks, len(b.Mw)+len(b.Fiber))
	}
	if c.StormFadedLinks == 0 {
		t.Fatal("storm over the epicenter faded no microwave link")
	}
	if c.CutLink < len(b.Mw) || c.CutLink >= len(b.Mw)+len(b.Fiber) {
		t.Fatalf("cut link %d not a fiber index", c.CutLink)
	}
	if len(c.Schedule.Outages) == 0 || c.Schedule.Horizon != drillHorizonSec {
		t.Fatalf("schedule %+v not a drill-time timetable", c.Schedule)
	}
	// The surge multiplies users near the epicenter.
	plain, err := Compile(Spec{Kind: Diurnal}, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.Users[0] <= plain.Users[0] {
		t.Fatal("disaster did not surge epicenter users")
	}
}

func TestCommoditiesStableIDs(t *testing.T) {
	b := testBackbone()
	c, err := Compile(Spec{Kind: Diurnal}, b)
	if err != nil {
		t.Fatal(err)
	}
	big, appBig := c.Commodities(5000, 30)
	small, appSmall := c.Commodities(500, 30)
	if len(big) == 0 || len(small) == 0 {
		t.Fatal("no commodities")
	}
	// The app map covers all positive pairs and must not depend on the
	// flow total.
	if len(appBig) != len(appSmall) {
		t.Fatalf("appOf sizes differ: %d vs %d", len(appBig), len(appSmall))
	}
	byFlow := map[int][3]int{}
	for _, cm := range big {
		byFlow[cm.Flow] = [3]int{cm.Src, cm.Dst, cm.FlowBytes}
	}
	for _, cm := range small {
		ref, ok := byFlow[cm.Flow]
		if !ok {
			t.Fatalf("flow %d only exists at the small scale", cm.Flow)
		}
		if ref != [3]int{cm.Src, cm.Dst, cm.FlowBytes} {
			t.Fatalf("flow %d changed identity across scales: %v vs %v", cm.Flow, ref, [3]int{cm.Src, cm.Dst, cm.FlowBytes})
		}
		if appBig[cm.Flow] != appSmall[cm.Flow] {
			t.Fatalf("flow %d changed application across scales", cm.Flow)
		}
		if cm.FlowBytes != c.Spec.Mix[appSmall[cm.Flow]].FlowBytes {
			t.Fatalf("flow %d payload %d does not match its app profile", cm.Flow, cm.FlowBytes)
		}
	}
	// Counts sum exactly to the requested totals.
	sum := 0
	for _, cm := range big {
		sum += cm.Count
	}
	if sum != 5000 {
		t.Fatalf("big scale apportioned %d flows, want 5000", sum)
	}
	sum = 0
	for _, cm := range small {
		sum += cm.Count
	}
	if sum != 500 {
		t.Fatalf("small scale apportioned %d flows, want 500", sum)
	}

	// Pinned: the four users scenarios at both flow totals, every
	// commodity and the full appOf map.
	for _, tc := range []struct {
		spec Spec
		want [2]uint64 // at 5000 and 500 flows
	}{
		{Spec{Name: "evening-peak", Kind: Diurnal, Seed: 1}, [2]uint64{0xbc4c84db72279535, 0x29945387023e03a3}},
		{Spec{Name: "flash-crowd", Kind: FlashCrowd, Seed: 1}, [2]uint64{0x4544b727dd346a57, 0x5a15e3cf62725300}},
		{Spec{Name: "disaster-storm", Kind: Disaster, Seed: 1}, [2]uint64{0x8ef39abd640ba5de, 0x22980b3fb22aa0c3}},
		{Spec{Name: "cdn-anycast", Kind: CDNPlacement, Seed: 1, SinkCount: 4}, [2]uint64{0xbaf931ed38022bb6, 0xc3e25d078967bb81}},
	} {
		c, err := Compile(tc.spec, b)
		if err != nil {
			t.Fatal(err)
		}
		for k, flows := range []int{5000, 500} {
			comms, appOf := c.Commodities(flows, 30)
			if got := commoditiesHash(comms, appOf); got != tc.want[k] {
				t.Errorf("%s at %d flows: %d commodities, hash %#x; want %#x",
					tc.spec.Name, flows, len(comms), got, tc.want[k])
			}
		}
	}
}

// commoditiesHash folds every commodity (flow ID, endpoints, count,
// payload, demand bits) in list order, then appOf in flow order, into one
// FNV-64a sum.
func commoditiesHash(comms []netsim.Commodity, appOf map[int]App) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, c := range comms {
		put(uint64(c.Flow))
		put(uint64(c.Src))
		put(uint64(c.Dst))
		put(uint64(c.Count))
		put(uint64(c.FlowBytes))
		put(math.Float64bits(float64(c.Demand)))
	}
	flows := make([]int, 0, len(appOf))
	for f := range appOf {
		flows = append(flows, f)
	}
	sort.Ints(flows)
	for _, f := range flows {
		put(uint64(f))
		put(uint64(appOf[f]))
	}
	return h.Sum64()
}
