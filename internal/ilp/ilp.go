// Package ilp solves small mixed binary integer programs by LP-relaxation
// branch & bound over the in-repo simplex (package lp). Together they stand
// in for Gurobi in the paper's Step-2 topology design: exact on the same
// formulation, with the expected exponential scaling that Fig 2a documents.
package ilp

import (
	"errors"
	"math"
	"time"

	"cisp/internal/lp"
)

// Problem is a minimisation LP plus a set of binary variables (restricted to
// {0,1}; the solver adds the x ≤ 1 bound internally).
type Problem struct {
	LP     lp.Problem
	Binary []int // indices of binary variables
}

// Options bounds the search.
type Options struct {
	MaxNodes int           // 0 = default 200k
	Timeout  time.Duration // 0 = none
}

// Status of an ILP solve.
type Status int

// ILP solve outcomes.
const (
	Optimal    Status = iota // proved optimal
	Feasible                 // stopped early with an incumbent (node/time budget)
	Infeasible               // no integer-feasible point
	Unbounded
)

// Solution is a solved ILP.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	Nodes     int // branch-and-bound nodes explored
}

// ErrNoProgress indicates the underlying LP solver failed.
var ErrNoProgress = errors.New("ilp: LP solver failure")

const intTol = 1e-6

// Solve runs best-first branch & bound. Binary variables are branched by
// fixing them to 0 or 1 via equality constraints. Every node LP is solved
// on one lp.Workspace, so the search reuses one tableau's storage.
func Solve(p *Problem, opt Options) (*Solution, error) {
	maxNodes := opt.MaxNodes
	if maxNodes == 0 {
		maxNodes = 200_000
	}
	deadline := time.Time{}
	if opt.Timeout > 0 {
		// A wall-clock budget makes the incumbent returned at timeout
		// machine-dependent; callers wanting bit-identical results must
		// bound by MaxNodes instead (the default) and leave Timeout zero.
		deadline = time.Now().Add(opt.Timeout) //lint:allow determinism -- opt-in solver budget; deterministic runs use MaxNodes
	}

	// Base problem with 0 ≤ x_b ≤ 1 bounds for binaries.
	base := p.LP
	base.Cons = append([]lp.Constraint(nil), p.LP.Cons...)
	for _, b := range p.Binary {
		base.AddConstraint([]int{b}, []float64{1}, lp.LE, 1)
	}

	type node struct {
		fixed map[int]float64
		bound float64 // parent LP objective (lower bound)
	}
	// DFS stack; best-bound ordering would need a heap — DFS finds
	// incumbents fast, which matters more with good pruning.
	stack := []node{{fixed: map[int]float64{}, bound: math.Inf(-1)}}

	var best *Solution
	bestObj := math.Inf(1)
	nodes := 0
	var ws lp.Workspace

	for len(stack) > 0 {
		if nodes >= maxNodes || (!deadline.IsZero() && time.Now().After(deadline)) { //lint:allow determinism -- opt-in solver budget; deterministic runs use MaxNodes
			if best != nil {
				best.Status = Feasible
				best.Nodes = nodes
				return best, nil
			}
			return &Solution{Status: Infeasible, Nodes: nodes}, nil
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if nd.bound >= bestObj-1e-9 {
			continue // cannot improve
		}
		nodes++

		// Solve the node LP with fixings.
		sub := base
		sub.Cons = append([]lp.Constraint(nil), base.Cons...)
		for v, val := range nd.fixed {
			sub.AddConstraint([]int{v}, []float64{1}, lp.EQ, val)
		}
		sol, err := ws.Solve(&sub)
		if err != nil {
			return nil, errors.Join(ErrNoProgress, err)
		}
		switch sol.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			// With all binaries bounded this means the continuous part is
			// unbounded; propagate.
			return &Solution{Status: Unbounded, Nodes: nodes}, nil
		}
		if sol.Objective >= bestObj-1e-9 {
			continue
		}

		// Most-fractional branching.
		branch := -1
		worst := intTol
		for _, b := range p.Binary {
			f := sol.X[b] - math.Floor(sol.X[b])
			frac := math.Min(f, 1-f)
			if frac > worst {
				worst = frac
				branch = b
			}
		}
		if branch < 0 {
			// Integer feasible: new incumbent.
			x := make([]float64, len(sol.X))
			copy(x, sol.X)
			for _, b := range p.Binary {
				x[b] = math.Round(x[b])
			}
			best = &Solution{Status: Optimal, X: x, Objective: sol.Objective}
			bestObj = sol.Objective
			continue
		}
		// Children: try the rounding-friendly side last so DFS pops it first.
		near := math.Round(sol.X[branch])
		far := 1 - near
		childFixed := func(v float64) map[int]float64 {
			m := make(map[int]float64, len(nd.fixed)+1)
			for k, val := range nd.fixed {
				m[k] = val
			}
			m[branch] = v
			return m
		}
		stack = append(stack, node{fixed: childFixed(far), bound: sol.Objective})
		stack = append(stack, node{fixed: childFixed(near), bound: sol.Objective})
	}

	if best != nil {
		best.Nodes = nodes
		return best, nil
	}
	return &Solution{Status: Infeasible, Nodes: nodes}, nil
}
