package te

import (
	"fmt"
	"sync/atomic"

	"cisp/internal/lp"
	"cisp/internal/obs"
)

// lpSolves counts simplex invocations process-wide. Fast-reroute promises
// zero LP work on its event path; the counter is what lets tests pin that
// promise instead of trusting it. Controller.LPSolves counts one
// controller's share.
var lpSolves atomic.Int64

// LPSolves returns the cumulative number of simplex solves the package has
// performed in this process. Sample it before and after an operation to
// count the solves the operation triggered, with no other TE work running.
func LPSolves() int64 { return lpSolves.Load() }

// tieEps weights the delay tie-break in the LP objective. The delay term is
// normalised to at most 1 in total, so the reported MLU sits within tieEps
// of the true optimum while the solver prefers low-latency splits among
// MLU-equal optima (that is what keeps p99 FCT from drifting when parallel
// capacity is plentiful).
const tieEps = 1e-3

// lpScratch is the storage a controller's warm re-solves reuse: the
// simplex workspace, the problem with its constraint list and term arena,
// the variable offsets, and an edge-indexed table of capacity rows. The
// zero value is ready to use. It serves one solve at a time.
type lpScratch struct {
	ws    lp.Workspace
	p     lp.Problem
	terms []lp.Term
	varAt []int
	rows  []edgeRow // by edge ID; all zero between solves
	used  []int32   // edges some candidate touches, in first-touch order
}

// edgeRow locates one edge's capacity row in the term arena: its terms
// start at start, and n of them are placed (counted, during sizing).
type edgeRow struct{ start, n int }

// solveLP solves the path-assignment LP for the given commodity subset
// against residual capacities. Writing θ for the max link utilization and
// φ = max(0, θ − u0) for its overload above the uncongested hinge u0
// (Config.UtilFloor), it solves
//
//	minimise   φ + tieEps · Σ (d_c/ΣD) (delay_p/maxDelay) x_{c,p}
//	subject to Σ_p x_{c,p} = 1                            for each commodity
//	           Σ d_c x_{c,p}[e ∈ p] − cap_e φ ≤ cap_e u0 − base_e  per edge
//	           φ ≥ floor − u0
//	           x, φ ≥ 0
//
// so congested instances get the classic min-MLU splits while links under
// u0 exert no spreading pressure — there the delay term keeps traffic on
// the lowest-latency candidates. base carries the pinned load of
// commodities outside the subset and floor the utilization those pinned
// loads already force somewhere in the network (headroom the subset may use
// for free). Returns per-commodity path fractions and the solved θ.
// Infeasibility or unboundedness indicate a formulation bug and fail
// loudly; they never return garbage splits. The LP is built and solved on
// s, or on fresh storage when s is nil; the fractions are the caller's.
func solveLP(g *graph, cs []*teComm, base []float64, floor, u0 float64, s *lpScratch) ([][]float64, float64, error) {
	lpSolves.Add(1)
	obs.Active().Counter("cisp_te_lp_solves_total").Inc()
	if s == nil {
		s = new(lpScratch)
	}
	nx := 0
	s.varAt = resize(s.varAt, len(cs)+1)
	varAt := s.varAt
	totD, maxDelay := 0.0, 0.0
	for i, c := range cs {
		varAt[i] = nx
		nx += len(c.cands)
		totD += c.demand
		for _, p := range c.cands {
			if p.Delay > maxDelay {
				maxDelay = p.Delay
			}
		}
	}
	varAt[len(cs)] = nx
	phi := nx
	p := &s.p
	p.NumVars = nx + 1
	p.Objective = resize(p.Objective, nx+1)
	clear(p.Objective)
	p.Objective[phi] = 1
	if totD > 0 && maxDelay > 0 {
		for i, c := range cs {
			for pi, cand := range c.cands {
				p.Objective[varAt[i]+pi] = tieEps * (c.demand / totD) * (cand.Delay / maxDelay)
			}
		}
	}

	// Size the rows: one conservation term per path, then a capacity row
	// per edge some candidate touches (one term per crossing path, plus φ),
	// then the floor row's φ.
	s.rows = resize(s.rows, 2*len(g.links))
	s.used = s.used[:0]
	for _, c := range cs {
		for _, cand := range c.cands {
			for _, ei := range cand.edges {
				if s.rows[ei].n == 0 {
					s.used = append(s.used, ei)
				}
				s.rows[ei].n++
			}
		}
	}
	nt := nx
	for _, ei := range s.used {
		r := &s.rows[ei]
		r.start, nt = nt, nt+r.n+1
		r.n = 0
	}
	s.terms = resize(s.terms, nt+1)
	terms := s.terms
	p.Cons = p.Cons[:0]

	// Per-commodity conservation.
	for i, c := range cs {
		row := terms[varAt[i]:varAt[i+1]]
		for pi := range c.cands {
			row[pi] = lp.Term{Var: varAt[i] + pi, Coeff: 1}
		}
		p.Cons = append(p.Cons, lp.Constraint{Terms: row, Sense: lp.EQ, RHS: 1})
	}

	// Per-edge capacity, only for edges some candidate touches, each row
	// normalized to utilization units (divided by the edge capacity):
	// demands and capacities arrive in bps at 1e6–1e9 magnitudes, and the
	// dense simplex's absolute pivot tolerances degrade badly at that
	// scale — warm reoptimization over a part-failed topology was reported
	// infeasible before this. Every used edge has positive capacity
	// (candidates crossing a downed link are masked before the LP is
	// built).
	for i, c := range cs {
		for pi, cand := range c.cands {
			for _, ei := range cand.edges {
				r := &s.rows[ei]
				terms[r.start+r.n] = lp.Term{Var: varAt[i] + pi, Coeff: c.demand / g.capBps(ei)}
				r.n++
			}
		}
	}
	for _, ei := range s.used {
		r := &s.rows[ei]
		cap := g.capBps(ei)
		row := terms[r.start : r.start+r.n+1]
		row[r.n] = lp.Term{Var: phi, Coeff: -1}
		p.Cons = append(p.Cons, lp.Constraint{Terms: row, Sense: lp.LE, RHS: u0 - base[ei]/cap})
		*r = edgeRow{}
	}
	if floor > u0 {
		terms[nt] = lp.Term{Var: phi, Coeff: 1}
		p.Cons = append(p.Cons, lp.Constraint{Terms: terms[nt : nt+1], Sense: lp.GE, RHS: floor - u0})
	}

	sol, err := s.ws.Solve(p)
	if err == nil && solveFault != nil {
		err = solveFault()
	}
	if err != nil {
		return nil, 0, fmt.Errorf("te: simplex failed on %d commodities × %d paths: %w", len(cs), nx, err)
	}
	if sol.Status != lp.Optimal {
		// With Σx=1 always satisfiable and θ free to grow, neither status
		// can arise from a well-formed instance.
		return nil, 0, fmt.Errorf("te: LP reported %v on %d commodities (formulation bug)", sol.Status, len(cs))
	}
	fracs := make([][]float64, len(cs))
	for i := range cs {
		f := make([]float64, varAt[i+1]-varAt[i])
		sum := 0.0
		for pi := range f {
			v := sol.X[varAt[i]+pi]
			if v < 0 {
				v = 0
			}
			f[pi] = v
			sum += v
		}
		if sum <= 0 {
			return nil, 0, fmt.Errorf("te: LP returned a zero split for commodity %d (formulation bug)", cs[i].flow)
		}
		for pi := range f {
			f[pi] /= sum
		}
		fracs[i] = f
	}
	return fracs, u0 + sol.X[phi], nil
}

// solveFault, when non-nil, is called after every simplex solve that
// succeeded, and a non-nil result fails the solve as a solver error would.
// Only the package's tests set it (export_test.go), to fail a chosen
// solve mid-update.
var solveFault func() error

// resize returns s at length n, on its own backing array when that is
// long enough. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
