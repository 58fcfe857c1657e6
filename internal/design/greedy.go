package design

import (
	"cisp/internal/obs"
	"cisp/internal/parallel"
	"cisp/internal/xheap"
)

// GreedyOptions tunes the heuristic.
type GreedyOptions struct {
	// BudgetFactor inflates the budget during candidate selection; the
	// paper's heuristic runs at 2× to generate candidates for the final
	// optimization. Greedy itself uses factor 1. Zero means 1.
	BudgetFactor float64

	// PerCost scores candidates by gain per tower rather than raw gain.
	// The paper's description ("decreases average stretch the most") is raw
	// gain; per-cost is provided for ablation.
	PerCost bool
}

// refreshEvery forces a full re-evaluation of all candidate gains after
// this many links are built, bounding the drift lazy evaluation can
// accumulate on this non-submodular objective.
const refreshEvery = 2

type heapEntry struct {
	i, j  int
	gain  float64 // possibly stale
	epoch int     // epoch at which gain was computed
}

// Greedy runs the marginal-gain heuristic: repeatedly build the affordable
// microwave link that most decreases the traffic-weighted mean stretch,
// until no link yields positive gain or the budget is exhausted.
//
// It uses lazy ("accelerated") greedy: candidate gains are kept in a
// max-heap and only the top entry is re-evaluated against the current
// topology, cutting complexity from O(iterations · candidates · n²) toward
// O(candidates · n² + iterations · re-evals · n²). This objective is not
// submodular — building a link can *raise* another link's marginal gain
// (microwave segments chain) — so candidates are never discarded on a
// non-positive gain, and whenever the heap's fresh maximum is non-positive
// every candidate is re-evaluated once before concluding that no link
// helps. The result tracks exhaustive greedy closely (ablation_test.go)
// and the candidate-ILP refinement in GreedyILP recovers any residue.
func Greedy(p *Problem, opt GreedyOptions) *Topology {
	factor := opt.BudgetFactor
	if factor <= 0 {
		factor = 1
	}
	budget := p.Budget * factor

	t := NewTopology(p)
	// A max-heap on the candidate's score: its gain, or its gain per tower.
	score := func(e heapEntry) float64 {
		if opt.PerCost {
			return e.gain / p.MWCost[e.i][e.j]
		}
		return e.gain
	}
	less := func(a, b heapEntry) bool { return score(a) > score(b) }

	// Seed the heap with every useful link, positive gain or not (synergy
	// can activate them later). Collecting the candidate pairs is cheap and
	// stays inline; the O(n²)-per-pair gain evaluations fan out on the pool,
	// indexed by pair so the entry order — and hence the heap — is identical
	// to a sequential scan.
	var pairs [][2]int
	for i := 0; i < p.N; i++ {
		for j := i + 1; j < p.N; j++ {
			if !p.usefulLink(i, j, t.fiberD) || p.MWCost[i][j] > budget {
				continue
			}
			pairs = append(pairs, [2]int{i, j})
		}
	}
	h := make([]heapEntry, len(pairs))
	for k, ij := range pairs {
		h[k] = heapEntry{i: ij[0], j: ij[1], epoch: 0}
	}
	gainEvals := int64(len(h))
	parallel.For(len(h), gainGrain, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			h[k].gain = t.gainOf(h[k].i, h[k].j)
		}
	})
	xheap.Init(h, less)

	epoch := 0
	remaining := budget
	refreshAll := func() {
		gainEvals += int64(len(h))
		parallel.For(len(h), gainGrain, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				h[k].gain = t.gainOf(h[k].i, h[k].j)
				h[k].epoch = epoch
			}
		})
		xheap.Init(h, less)
	}
	for len(h) > 0 {
		top := h[0]
		if p.MWCost[top.i][top.j] > remaining {
			xheap.Pop(&h, less) // can never become affordable again; discard
			continue
		}
		if top.epoch < epoch {
			// Stale: recompute against the current topology and re-sift.
			gainEvals++
			h[0].gain = t.gainOf(top.i, top.j)
			h[0].epoch = epoch
			xheap.Fix(h, 0, less)
			continue
		}
		if top.gain <= 0 {
			// The fresh maximum does not help. Stale entries below may have
			// grown (non-submodularity): refresh everything once and only
			// stop if nothing positive remains.
			refreshAll()
			if len(h) == 0 || h[0].gain <= 0 || h[0].epoch < epoch {
				break
			}
			continue
		}
		// Fresh positive maximum: build it.
		xheap.Pop(&h, less)
		t.AddLink(top.i, top.j)
		remaining -= p.MWCost[top.i][top.j]
		epoch++
		if epoch%refreshEvery == 0 {
			refreshAll()
		}
	}
	snk := obs.Active()
	snk.Counter("cisp_design_step2_iterations_total").Add(int64(epoch))
	snk.Counter("cisp_design_gain_evals_total").Add(gainEvals)
	return t
}

// GreedyILP is the paper's "cISP" design method (§3.2 Solution approach):
// the greedy heuristic run at an inflated 2× budget proposes candidate
// links, and an exact branch-and-bound over just those candidates (with the
// true budget) picks the final set. To keep the candidate pool rich in both
// high-impact and high-efficiency links, candidates are the union of the
// raw-gain and gain-per-tower greedy passes; the better 1×-budget greedy
// seeds the incumbent, so the result is never worse than plain Greedy.
// maxNodes bounds the refinement search (0 = default).
func GreedyILP(p *Problem, maxNodes int) *Topology {
	top, _ := greedyILP(p, maxNodes)
	return top
}

// greedyILP is GreedyILP that also returns the number of refinement
// search nodes visited.
func greedyILP(p *Problem, maxNodes int) (*Topology, int) {
	// On small instances candidate pruning is unnecessary: hand every
	// useful link to the selector and the result is the exact optimum
	// (Fig 2b's regime).
	base := NewTopology(p)
	var all [][2]int
	for i := 0; i < p.N; i++ {
		for j := i + 1; j < p.N; j++ {
			if p.usefulLink(i, j, base.fiberD) {
				all = append(all, [2]int{i, j})
			}
		}
	}
	incumbent := Greedy(p, GreedyOptions{})
	if alt := Greedy(p, GreedyOptions{PerCost: true}); alt.objective() < incumbent.objective() {
		incumbent = alt
	}
	if len(all) <= 48 {
		top, nodes, _ := exactOverCandidates(p, all, incumbent, maxNodes)
		return top, nodes
	}
	// At scale: the paper's pruning — candidates from greedy at 2× budget,
	// under both scoring rules to keep high-impact and high-efficiency
	// links in the pool.
	seen := map[[2]int]bool{}
	var cands [][2]int
	for _, opt := range []GreedyOptions{
		{BudgetFactor: 2},
		{BudgetFactor: 2, PerCost: true},
	} {
		for _, l := range Greedy(p, opt).Built {
			k := [2]int{l.I, l.J}
			if !seen[k] {
				seen[k] = true
				cands = append(cands, k)
			}
		}
	}
	top, nodes, _ := exactOverCandidates(p, cands, incumbent, maxNodes)
	return top, nodes
}
