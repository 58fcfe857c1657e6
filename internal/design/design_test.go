package design

import (
	"math"
	"math/rand"
	"testing"
)

// randomProblem generates a planar design instance: sites in a ~1000 km box,
// microwave links near-geodesic (some infeasible), fiber ~1.9× latency.
func randomProblem(seed int64, n int, budget float64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64() * 1000e3
		ys[i] = rng.Float64() * 800e3
	}
	mk := func() [][]float64 {
		m := make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n)
		}
		return m
	}
	p := &Problem{
		N: n, Traffic: mk(), Geodesic: mk(), MW: mk(), MWCost: mk(), FiberLat: mk(),
		Budget: budget,
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
			if d < 1000 {
				d = 1000
			}
			p.Geodesic[i][j], p.Geodesic[j][i] = d, d
			h := rng.Float64()
			p.Traffic[i][j], p.Traffic[j][i] = h, h
			mw := d * (1.01 + 0.06*rng.Float64())
			cost := math.Ceil(mw / 80e3)
			if rng.Float64() < 0.15 {
				mw, cost = math.Inf(1), 0
			}
			p.MW[i][j], p.MW[j][i] = mw, mw
			p.MWCost[i][j], p.MWCost[j][i] = cost, cost
			fl := d * 1.5 * (1.15 + 0.4*rng.Float64())
			p.FiberLat[i][j], p.FiberLat[j][i] = fl, fl
		}
	}
	return p
}

func TestValidate(t *testing.T) {
	p := randomProblem(1, 6, 10)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	p.Traffic[1][2] = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative traffic accepted")
	}
	p.Traffic[1][2] = 0.5 // asymmetric now
	if err := p.Validate(); err == nil {
		t.Fatal("asymmetric matrix accepted")
	}
}

func TestFiberOnlyTopology(t *testing.T) {
	p := randomProblem(2, 8, 20)
	top := NewTopology(p)
	if got := top.CostUsed(); got != 0 {
		t.Fatalf("fiber-only cost = %v", got)
	}
	s := top.MeanStretch()
	if s < 1.5 || s > 3.5 {
		t.Fatalf("fiber-only mean stretch = %v, want ~1.7-2.9 by construction", s)
	}
	if fs := top.MeanFiberStretch(); fs != s {
		t.Fatalf("MeanFiberStretch (%v) != MeanStretch of empty topology (%v)", fs, s)
	}
}

func TestAddLinkMatchesRecompute(t *testing.T) {
	// Incremental APSP must equal a full Floyd-Warshall over fiber + built links.
	for seed := int64(0); seed < 10; seed++ {
		p := randomProblem(seed, 9, 100)
		top := NewTopology(p)
		rng := rand.New(rand.NewSource(seed + 100))
		var built [][2]int
		for k := 0; k < 5; k++ {
			i, j := rng.Intn(p.N), rng.Intn(p.N)
			if i == j || math.IsInf(p.MW[i][j], 1) {
				continue
			}
			top.AddLink(i, j)
			built = append(built, [2]int{i, j})
		}
		// Recompute from scratch.
		ref := p.fiberClosure()
		for _, b := range built {
			if p.MW[b[0]][b[1]] < ref[b[0]][b[1]] {
				ref[b[0]][b[1]] = p.MW[b[0]][b[1]]
				ref[b[1]][b[0]] = p.MW[b[0]][b[1]]
			}
		}
		floydWarshall(ref)
		for i := 0; i < p.N; i++ {
			for j := 0; j < p.N; j++ {
				if math.Abs(top.Dist(i, j)-ref[i][j]) > 1e-6 {
					t.Fatalf("seed %d: incremental APSP mismatch at (%d,%d): %v vs %v",
						seed, i, j, top.Dist(i, j), ref[i][j])
				}
			}
		}
	}
}

func TestGreedyImprovesAndRespectsBudget(t *testing.T) {
	p := randomProblem(3, 12, 60)
	top := Greedy(p, GreedyOptions{})
	if top.CostUsed() > p.Budget {
		t.Fatalf("greedy used %v towers, budget %v", top.CostUsed(), p.Budget)
	}
	fiberOnly := NewTopology(p).MeanStretch()
	if got := top.MeanStretch(); got >= fiberOnly {
		t.Fatalf("greedy stretch %v did not improve on fiber-only %v", got, fiberOnly)
	}
	if len(top.Built) == 0 {
		t.Fatal("greedy built nothing despite budget")
	}
}

func TestGreedyZeroBudget(t *testing.T) {
	p := randomProblem(4, 8, 0)
	top := Greedy(p, GreedyOptions{})
	if len(top.Built) != 0 {
		t.Fatalf("zero budget built %d links", len(top.Built))
	}
}

func TestGreedyMonotoneInBudget(t *testing.T) {
	// Fig 4a property: more budget, no worse stretch.
	p := randomProblem(5, 12, 0)
	prev := math.Inf(1)
	for _, b := range []float64{0, 20, 40, 80, 160, 320} {
		q := *p
		q.Budget = b
		s := Greedy(&q, GreedyOptions{}).MeanStretch()
		if s > prev+1e-9 {
			t.Fatalf("stretch increased with budget: %v -> %v at budget %v", prev, s, b)
		}
		prev = s
	}
}

// mustExact solves p exactly and fails the test if the search stopped at
// its node cap, since an unfinished search proves nothing optimal.
func mustExact(t *testing.T, p *Problem) *Topology {
	t.Helper()
	top, complete := Exact(p, ExactOptions{})
	if !complete {
		t.Fatal("exact search stopped at its node cap")
	}
	return top
}

func TestGreedyMatchesExactSmall(t *testing.T) {
	// Fig 2b: the cISP heuristic's stretch "matches that of the ILP to two
	// decimal places" on small instances. We require GreedyILP ≤ Exact+0.01
	// and never worse than its own greedy incumbent; plain Greedy's gap is
	// logged for reference.
	for seed := int64(0); seed < 8; seed++ {
		p := randomProblem(seed+50, 7, 25)
		exact := mustExact(t, p).MeanStretch()
		greedy := Greedy(p, GreedyOptions{}).MeanStretch()
		refined := GreedyILP(p, 0).MeanStretch()
		if exact > greedy+1e-9 {
			t.Fatalf("seed %d: exact (%v) worse than greedy (%v)?", seed, exact, greedy)
		}
		if refined-exact > 0.01 {
			t.Errorf("seed %d: GreedyILP %0.4f vs exact %0.4f — gap > 0.01 (two decimal places)", seed, refined, exact)
		}
		if refined > greedy+1e-9 {
			t.Errorf("seed %d: GreedyILP (%v) worse than its own greedy incumbent (%v)", seed, refined, greedy)
		}
		t.Logf("seed %d: exact %0.4f, cISP heuristic %0.4f, plain greedy %0.4f", seed, exact, refined, greedy)
	}
}

func TestFlowILPMatchesExactTiny(t *testing.T) {
	// The Eq. 1 flow formulation and subset B&B must agree — they are the
	// same optimization.
	for seed := int64(0); seed < 4; seed++ {
		p := randomProblem(seed+200, 5, 15)
		exact := mustExact(t, p)
		flow, stats, err := FlowILP(p, FlowILPOptions{Prune: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d := math.Abs(flow.MeanStretch() - exact.MeanStretch()); d > 1e-6 {
			t.Fatalf("seed %d: flow ILP stretch %v != exact %v (Δ=%v, stats=%+v)",
				seed, flow.MeanStretch(), exact.MeanStretch(), d, stats)
		}
	}
}

func TestFlowILPPruningPreservesOptimum(t *testing.T) {
	p := randomProblem(300, 5, 12)
	with, sWith, err := FlowILP(p, FlowILPOptions{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	without, sWithout, err := FlowILP(p, FlowILPOptions{Prune: false})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(with.MeanStretch() - without.MeanStretch()); d > 1e-6 {
		t.Fatalf("pruning changed the optimum: %v vs %v", with.MeanStretch(), without.MeanStretch())
	}
	if sWith.PrunedVars == 0 {
		t.Error("pruning eliminated no variables on a random instance")
	}
	if sWith.Vars >= sWithout.Vars {
		t.Errorf("pruned problem not smaller: %d vs %d vars", sWith.Vars, sWithout.Vars)
	}
	t.Logf("pruning: %d -> %d vars (%d flow vars eliminated)", sWithout.Vars, sWith.Vars, sWith.PrunedVars)
}

func TestLPRoundingNoBetterThanExact(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		p := randomProblem(seed+400, 5, 15)
		exact := mustExact(t, p).MeanStretch()
		rounded, _, err := LPRounding(p, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rounded.CostUsed() > p.Budget {
			t.Fatalf("seed %d: rounding exceeded budget", seed)
		}
		if rounded.MeanStretch() < exact-1e-9 {
			t.Fatalf("seed %d: rounding (%v) beat the optimum (%v)?!", seed, rounded.MeanStretch(), exact)
		}
	}
}

func TestExactRespectsBudget(t *testing.T) {
	p := randomProblem(6, 7, 18)
	top := mustExact(t, p)
	if top.CostUsed() > p.Budget {
		t.Fatalf("exact used %v > budget %v", top.CostUsed(), p.Budget)
	}
}

func TestLowerBoundIsLower(t *testing.T) {
	p := randomProblem(7, 10, 40)
	lb := LowerBound(p)
	got := Greedy(p, GreedyOptions{}).MeanStretch()
	if lb > got+1e-9 {
		t.Fatalf("LowerBound (%v) exceeds achievable stretch (%v)", lb, got)
	}
	if lb < 1 {
		t.Fatalf("LowerBound %v < 1 — distances shorter than geodesic?", lb)
	}
}

func TestMeanStretchAtLeastOne(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p := randomProblem(seed+500, 10, 50)
		top := Greedy(p, GreedyOptions{})
		if s := top.MeanStretch(); s < 1 {
			t.Fatalf("seed %d: mean stretch %v < 1", seed, s)
		}
	}
}

func TestPerCostGreedyAblation(t *testing.T) {
	// Both scoring rules must produce valid designs; log their difference.
	p := randomProblem(8, 12, 50)
	raw := Greedy(p, GreedyOptions{}).MeanStretch()
	perCost := Greedy(p, GreedyOptions{PerCost: true}).MeanStretch()
	t.Logf("raw-gain greedy %0.4f vs per-cost greedy %0.4f", raw, perCost)
	if perCost < 1 || raw < 1 {
		t.Fatal("invalid stretch")
	}
}

func BenchmarkGreedy20Cities(b *testing.B) {
	p := randomProblem(1, 20, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy(p, GreedyOptions{})
	}
}

func BenchmarkExact7Cities(b *testing.B) {
	p := randomProblem(1, 7, 25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Exact(p, ExactOptions{})
	}
}

func BenchmarkFlowILP5Cities(b *testing.B) {
	p := randomProblem(1, 5, 15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := FlowILP(p, FlowILPOptions{Prune: true}); err != nil {
			b.Fatal(err)
		}
	}
}
