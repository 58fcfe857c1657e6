package design

import (
	"math"
	"sort"
)

// ExactOptions bounds the exact branch-and-bound search.
type ExactOptions struct {
	// MaxNodes caps the search nodes visited; 0 means 2 000 000. A search
	// that reaches the cap returns the best design it has found so far,
	// which is then not proven optimal.
	MaxNodes int
}

// Exact solves the Step-2 design optimally by branch & bound over link
// subsets. Because link capacity is not a constraint in the Step-2
// formulation (§3.2 decomposes capacity into Step 3), each commodity
// independently follows its shortest built path, so subset search with
// shortest-path evaluation is exactly equivalent to the flow ILP of Eq. 1 —
// and much faster, since the LP relaxation is replaced by an additive
// lower bound (the objective with every remaining candidate built for
// free, which only underestimates cost-constrained reality).
//
// Still exponential: use for the small instances of Fig 2, not at scale.
//
// complete reports whether the search finished within opt.MaxNodes. When
// it is false, top is the best design found before the cap, not a proven
// optimum.
func Exact(p *Problem, opt ExactOptions) (top *Topology, complete bool) {
	top, _, complete = exact(p, opt.MaxNodes)
	return top, complete
}

// exact is Exact that also returns the number of search nodes visited.
func exact(p *Problem, maxNodes int) (top *Topology, nodes int, complete bool) {
	base := NewTopology(p)
	var cands [][2]int
	for i := 0; i < p.N; i++ {
		for j := i + 1; j < p.N; j++ {
			if p.usefulLink(i, j, base.fiberD) {
				cands = append(cands, [2]int{i, j})
			}
		}
	}
	incumbent := Greedy(p, GreedyOptions{})
	return exactOverCandidates(p, cands, incumbent, maxNodes)
}

// exactOverCandidates finds the best subset of cands within p.Budget,
// starting from the given incumbent (never returns anything worse). It
// also returns the number of search nodes visited, counting the calls the
// cap turns away, and whether the search finished within maxNodes (0
// means 2 000 000): a finished search proves its result optimal over
// cands, while a capped one returns the best design found before the cap.
//
// A node has built some of sc[:from] and leaves sc[from:] open. Its bound
// is the objective with every open candidate built for free (ignoring
// budget), which is valid because adding links only shortens paths. No
// node builds that bound on a clone of itself:
//   - the include child builds sc[from] and leaves sc[from+1:] open, the
//     same links as its parent's bound, so it inherits the parent's bound;
//   - the exclude child relaxes its built links into one working copy of
//     suffix[from+1], the base with sc[from+1:] inserted in order, which is
//     built once per search on first use. With no built links its bound is
//     that suffix's objective, also computed once.
//
// The suffix bound inserts the same links in another order, so its last
// float bits can differ from a bound built on the node's own matrix; the
// search pins in pins_test.go hold the visited node counts and designs.
// Include children are written into one reused topology per depth, so the
// search allocates per depth, not per node.
func exactOverCandidates(p *Problem, cands [][2]int, incumbent *Topology, maxNodes int) (best *Topology, nodes int, complete bool) {
	if maxNodes == 0 {
		maxNodes = 2_000_000
	}
	base := NewTopology(p)

	// Order candidates by standalone gain (descending) so DFS finds strong
	// incumbents early and the additive bound prunes hard.
	type scored struct {
		ij   [2]int
		gain float64
	}
	sc := make([]scored, 0, len(cands))
	for _, ij := range cands {
		sc = append(sc, scored{ij: ij, gain: base.gainOf(ij[0], ij[1])})
	}
	sort.Slice(sc, func(a, b int) bool { return sc[a].gain > sc[b].gain })

	best = incumbent
	bestObj := incumbent.objective()

	// suffix[k] is the base with sc[k:] inserted in order, built on first
	// use, and suffixObj[k] its objective.
	suffix := make([]*Topology, len(sc)+1)
	suffixObj := make([]float64, len(sc)+1)
	work := base.Clone()
	// suffixBound is the bound of a node with built links t.Built and open
	// candidates sc[from:].
	suffixBound := func(t *Topology, from int) float64 {
		s := suffix[from]
		if s == nil {
			s = base.Clone()
			for _, c := range sc[from:] {
				s.AddLink(c.ij[0], c.ij[1])
			}
			suffix[from], suffixObj[from] = s, s.objective()
		}
		if len(t.Built) == 0 {
			return suffixObj[from]
		}
		work.copyFrom(s)
		for _, l := range t.Built {
			work.AddLink(l.I, l.J)
		}
		return work.objective()
	}
	// depth[k] holds the include child whose open candidates are sc[k:].
	// Every topology live on the DFS stack was created at a depth at most
	// the current from, so the child written at from+1 overwrites none.
	depth := make([]*Topology, len(sc)+1)

	// dfs visits the node whose built links are t's and whose open
	// candidates are sc[from:]. A node reached by including a candidate
	// brings a new topology to score and inherits its bound lb. One
	// reached by excluding a candidate shares its parent's topology, which
	// the parent already scored against an incumbent that has only
	// improved since, so it skips the scoring and builds its own bound.
	var dfs func(t *Topology, from int, remaining, lb float64, included bool)
	dfs = func(t *Topology, from int, remaining, lb float64, included bool) {
		nodes++
		if nodes > maxNodes {
			return
		}
		if included {
			if obj := t.objective(); obj < bestObj-1e-12 {
				best = t.Clone()
				bestObj = obj
			}
		}
		if from >= len(sc) {
			return
		}
		if !included {
			lb = suffixBound(t, from)
		}
		if lb >= bestObj-1e-12 {
			return // even free links cannot beat the incumbent
		}
		// Branch: include sc[from] (if affordable), then exclude.
		i, j := sc[from].ij[0], sc[from].ij[1]
		if cost := p.MWCost[i][j]; cost <= remaining {
			with := depth[from+1]
			if with == nil {
				with = t.Clone()
				depth[from+1] = with
			} else {
				with.copyFrom(t)
			}
			with.AddLink(i, j)
			dfs(with, from+1, remaining-cost, lb, true)
		}
		dfs(t, from+1, remaining, 0, false)
	}
	// The root is scored like an include child, against the whole suffix.
	dfs(base, 0, p.Budget, suffixBound(base, 0), true)
	return best, nodes, nodes <= maxNodes
}

// LowerBound returns the unconstrained-budget objective (every useful link
// built): the best mean stretch any budget could reach with these links.
func LowerBound(p *Problem) float64 {
	t := NewTopology(p)
	for i := 0; i < p.N; i++ {
		for j := i + 1; j < p.N; j++ {
			if p.usefulLink(i, j, t.fiberD) || (!math.IsInf(p.MW[i][j], 1) && p.MW[i][j] < t.fiberD[i][j]) {
				t.AddLink(i, j)
			}
		}
	}
	return t.MeanStretch()
}
