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
// loudly; they never return garbage splits.
func solveLP(g *graph, cs []*teComm, base []float64, floor, u0 float64) ([][]float64, float64, error) {
	lpSolves.Add(1)
	obs.Active().Counter("cisp_te_lp_solves_total").Inc()
	nx := 0
	varAt := make([]int, len(cs)+1)
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
	p := &lp.Problem{NumVars: nx + 1, Objective: make([]float64, nx+1)}
	p.Objective[phi] = 1
	if totD > 0 && maxDelay > 0 {
		for i, c := range cs {
			for pi, cand := range c.cands {
				p.Objective[varAt[i]+pi] = tieEps * (c.demand / totD) * (cand.Delay / maxDelay)
			}
		}
	}

	// Per-commodity conservation.
	for i, c := range cs {
		vars := make([]int, len(c.cands))
		ones := make([]float64, len(c.cands))
		for pi := range c.cands {
			vars[pi] = varAt[i] + pi
			ones[pi] = 1
		}
		p.AddConstraint(vars, ones, lp.EQ, 1)
	}

	// Per-edge capacity, only for edges some candidate touches.
	type row struct {
		vars   []int
		coeffs []float64
	}
	rows := map[int32]*row{}
	var used []int32
	for i, c := range cs {
		for pi, cand := range c.cands {
			for _, ei := range cand.edges {
				r := rows[ei]
				if r == nil {
					r = &row{}
					rows[ei] = r
					used = append(used, ei)
				}
				r.vars = append(r.vars, varAt[i]+pi)
				r.coeffs = append(r.coeffs, c.demand)
			}
		}
	}
	for _, ei := range used {
		// Normalize each row to utilization units (divide by the edge
		// capacity): demands and capacities arrive in bps at 1e6–1e9
		// magnitudes, and the dense simplex's absolute pivot tolerances
		// degrade badly at that scale — warm reoptimization over a
		// part-failed topology was reported infeasible before this. Every
		// used edge has positive capacity (candidates crossing a downed
		// link are masked before the LP is built).
		r := rows[ei]
		cap := g.edges[ei].capBps
		for k := range r.coeffs {
			r.coeffs[k] /= cap
		}
		r.vars = append(r.vars, phi)
		r.coeffs = append(r.coeffs, -1)
		p.AddConstraint(r.vars, r.coeffs, lp.LE, u0-base[ei]/cap)
	}
	if floor > u0 {
		p.AddConstraint([]int{phi}, []float64{1}, lp.GE, floor-u0)
	}

	sol, err := lp.Solve(p)
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
