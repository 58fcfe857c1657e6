package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cisp/internal/units"
)

// mluLoop is the split-load account as te's MLUGraph.MLU kept it before
// SplitLoad and MaxUtilization replaced it, with a scan of the list for
// each hop's directed ID: load accrues commodity by commodity, split by
// split, hop by hop, and the utilization is the largest load over rate
// among positive-rate directions.
func mluLoop(links []TopoLink, comms []Commodity, splits map[int][]SplitPath) ([]float64, units.Utilization, error) {
	scan := func(a, b int) int {
		for i, l := range links {
			if l.A == a && l.B == b {
				return 2 * i
			}
			if l.B == a && l.A == b {
				return 2*i + 1
			}
		}
		return -1
	}
	load := make([]float64, 2*len(links))
	for _, cm := range comms {
		for _, sp := range splits[cm.Flow] {
			for i := 0; i+1 < len(sp.Path); i++ {
				ei := scan(sp.Path[i], sp.Path[i+1])
				if ei < 0 {
					return nil, 0, fmt.Errorf("split path hop %d->%d not in topology", sp.Path[i], sp.Path[i+1])
				}
				load[ei] += float64(cm.Demand) * sp.Frac
			}
		}
	}
	mlu := 0.0
	for ei := range load {
		if c := float64(links[ei/2].RateBps); c > 0 {
			if u := load[ei] / c; u > mlu {
				mlu = u
			}
		}
	}
	if math.IsNaN(mlu) {
		return nil, 0, fmt.Errorf("NaN utilization")
	}
	return load, units.Utilization(mlu), nil
}

// splitRates and splitDemands make zero rates and zero demands common.
var (
	splitRates   = []units.BitsPerSecond{0, 1e6, 1e9, 2.5e9, 10e9}
	splitDemands = []units.BitsPerSecond{0, 1, 3e5, 1e6, 7.25e8, 1e9}
)

// runSplitLoadCase draws a seeded simple duplex mesh of 2–24 nodes (each
// pair linked with probability fill/255, in a random direction and list
// position, at a rate that is zero about one time in five), grades it
// under random fractions and a random down-set, and draws commodities in
// random order with split sets of random walks, plus splits for a flow
// that is no commodity. One case in ten gives a commodity a NaN demand,
// and one in ten a walk whose last hop may not be a link. SplitLoad over
// the clear list's index and MaxUtilization over the graded list must give
// mluLoop's loads and utilization bit for bit, and an error exactly where
// it errs.
func runSplitLoadCase(t *testing.T, seed int64, nodes, fill uint8) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 2 + int(nodes)%23
	var links []TopoLink
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Intn(255) >= int(fill) {
				continue
			}
			l := TopoLink{A: a, B: b, RateBps: splitRates[rng.Intn(len(splitRates))]}
			if rng.Intn(2) == 0 {
				l.A, l.B = b, a
			}
			links = append(links, l)
		}
	}
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	adj := make([][]int, n)
	for _, l := range links {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	frac, down := make([]float64, len(links)), make([]bool, len(links))
	for i := range links {
		frac[i], down[i] = rng.Float64(), rng.Intn(6) == 0
	}
	graded := Graded(nil, links, frac, down)

	var comms []Commodity
	splits := map[int][]SplitPath{}
	for k, flow := range rng.Perm(3 * n) {
		comms = append(comms, Commodity{Flow: flow, Src: rng.Intn(n), Demand: splitDemands[rng.Intn(len(splitDemands))]})
		if rng.Intn(5) == 0 {
			continue // no split set
		}
		for range 1 + rng.Intn(4) {
			path := []int{comms[k].Src}
			for range rng.Intn(7) {
				if out := adj[path[len(path)-1]]; len(out) > 0 {
					path = append(path, out[rng.Intn(len(out))])
				}
			}
			splits[flow] = append(splits[flow], SplitPath{Path: path, Frac: rng.Float64() + 1e-3})
		}
	}
	if rng.Intn(10) == 0 {
		comms[rng.Intn(len(comms))].Demand = units.BitsPerSecond(math.NaN())
	}
	if c := comms[rng.Intn(len(comms))]; rng.Intn(10) == 0 {
		splits[c.Flow] = append(splits[c.Flow], SplitPath{Path: []int{c.Src, rng.Intn(n)}, Frac: 1})
	}
	splits[3*n] = []SplitPath{{Path: []int{0, n - 1}, Frac: 1}}

	wantLoad, wantMLU, wantErr := mluLoop(graded, comms, splits)
	index, err := NewLinkIndex(n, links)
	if err != nil {
		t.Fatal(err)
	}
	load, err := index.SplitLoad(comms, splits)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("seed %d n=%d: SplitLoad error %v, loop error %v", seed, n, err, wantErr)
	}
	if err != nil {
		return
	}
	for id := range wantLoad {
		if math.Float64bits(load[id]) != math.Float64bits(wantLoad[id]) {
			t.Fatalf("seed %d n=%d: directed link %d load %v, loop %v", seed, n, id, load[id], wantLoad[id])
		}
	}
	if got := MaxUtilization(graded, load); math.Float64bits(float64(got)) != math.Float64bits(float64(wantMLU)) {
		t.Fatalf("seed %d n=%d: MaxUtilization %v, loop %v", seed, n, got, wantMLU)
	}
}

// TestSplitLoadMatchesLoop holds the split-load account to mluLoop over
// 300 seeded meshes and checks its edges: a hop that is not a link is an
// error naming it, a zero-rate link's load counts toward no utilization,
// and a load that is not two entries per link panics.
func TestSplitLoadMatchesLoop(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		runSplitLoadCase(t, seed, uint8(seed*7), uint8(40+seed*61))
	}

	links := []TopoLink{{A: 0, B: 1, RateBps: 0}, {A: 1, B: 2, RateBps: 10}}
	index, err := NewLinkIndex(3, links)
	if err != nil {
		t.Fatal(err)
	}
	comms := []Commodity{{Flow: 1, Src: 0, Dst: 2, Demand: 4}}
	if _, err := index.SplitLoad(comms, map[int][]SplitPath{1: {{Path: []int{0, 2}, Frac: 1}}}); err == nil || !strings.Contains(err.Error(), "hop 0->2 is not a link") {
		t.Errorf("SplitLoad over hop 0->2: error %v, want one naming the hop", err)
	}
	load, err := index.SplitLoad(comms, map[int][]SplitPath{1: {{Path: []int{0, 1, 2}, Frac: 0.5}, {Path: []int{0, 1}, Frac: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{4, 0, 2, 0}; fmt.Sprint(load) != fmt.Sprint(want) {
		t.Errorf("SplitLoad = %v, want %v", load, want)
	}
	if got := MaxUtilization(links, load); got != 0.2 {
		t.Errorf("MaxUtilization = %v, want 0.2 (the 0 bps link's load of 4 skipped)", got)
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "3 directed loads for 2 duplex links") {
			t.Errorf("MaxUtilization over 3 loads: panic %q, want one naming both lengths", msg)
		}
	}()
	MaxUtilization(links, load[:3])
}

func FuzzSplitLoadMatchesLoop(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed, uint8(seed*11), uint8(30+seed*53))
	}
	f.Fuzz(runSplitLoadCase)
}
