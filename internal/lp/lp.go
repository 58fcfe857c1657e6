// Package lp implements a dense two-phase primal simplex solver for linear
// programs in the form
//
//	minimize    c·x
//	subject to  a_i·x {≤,=,≥} b_i   for each constraint i
//	            x ≥ 0
//
// It is the in-repo substitute for the commercial solver (Gurobi) the paper
// uses for its Step-2 ILP: exact on the same formulations, merely slower.
// Problems are stated with sparse constraint rows and solved on a dense
// tableau, which is simple and adequate at the scales the cISP flow ILP
// reaches before its exponential blow-up makes any solver irrelevant
// (Fig 2a). Storage is dense, but a pivot eliminates only on the pivot
// row's nonzero columns: the TE LPs the control plane re-solves have
// pivot rows of a few dozen nonzeros across hundreds of columns. Skipping
// the zeros changes at most the sign of an exact zero, which no later
// step can tell apart (see pivot), so every pivot sequence and every
// nonzero tableau entry is the one dense elimination computes.
//
// Solve builds each tableau on fresh storage. A caller that solves LPs in
// turn, such as a TE controller's warm reoptimizations or a branch and
// bound's node relaxations, can keep one Workspace and solve on it
// instead: it reuses the previous solve's storage, cleared, and returns
// the same Solution bit for bit. A Workspace serves one goroutine at a
// time; Solve is safe for concurrent use.
package lp

import (
	"errors"
	"fmt"
	"math"

	"cisp/internal/obs"
)

// Sense is a constraint direction.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // a·x ≤ b
	GE              // a·x ≥ b
	EQ              // a·x = b
)

// Term is one coefficient of a sparse constraint row.
type Term struct {
	Var   int
	Coeff float64
}

// Constraint is a sparse linear constraint.
type Constraint struct {
	Terms []Term
	Sense Sense
	RHS   float64
}

// Problem is a minimisation LP over n non-negative variables.
type Problem struct {
	NumVars   int
	Objective []float64 // length NumVars; minimised
	Cons      []Constraint

	// maximize records that Objective holds the negated coefficients of a
	// Maximize call, so Solve can report the objective value in the
	// maximisation sense.
	maximize bool
}

// Maximize sets the objective to maximise c·x. The coefficients are stored
// negated (simplex minimises), and Solve reports Solution.Objective in the
// maximisation sense.
func (p *Problem) Maximize(c []float64) {
	p.Objective = make([]float64, len(c))
	for i, v := range c {
		p.Objective[i] = -v
	}
	p.maximize = true
}

// AddConstraint appends a constraint built from parallel slices.
func (p *Problem) AddConstraint(vars []int, coeffs []float64, s Sense, rhs float64) {
	if len(vars) != len(coeffs) {
		panic("lp: vars/coeffs length mismatch")
	}
	terms := make([]Term, len(vars))
	for i := range vars {
		terms[i] = Term{Var: vars[i], Coeff: coeffs[i]}
	}
	p.Cons = append(p.Cons, Constraint{Terms: terms, Sense: s, RHS: rhs})
}

// Status describes a solve outcome.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Solution is a solved LP.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64

	// Pivots counts the simplex pivots the solve performed (both phases);
	// the observability layer tracks it as a measure of solver effort.
	Pivots int
}

const eps = 1e-9

// ErrIterationLimit is returned when the simplex fails to terminate within
// its iteration budget (cycling or a pathological instance).
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")

// observe, when non-nil, sees every problem Solve returns a solution for.
// Only the package's tests set it (export_test.go), to pin the solves
// other packages run through the kernel.
var observe func(*Problem, *Solution)

// Solve runs two-phase simplex on a fresh Workspace and returns the
// solution. The returned error is non-nil only for internal failures
// (iteration limit) and malformed problems (a variable out of range);
// infeasibility and unboundedness are reported via Solution.Status.
func Solve(p *Problem) (*Solution, error) { return new(Workspace).Solve(p) }

// Workspace holds one solve's storage: the tableau rows, the normalised
// rows, the basis and pivot's nonzero-column buffer. Its next Solve
// reuses that storage, cleared, and grows only what is short, so a caller
// solving LPs in turn allocates little more than each Solution. Tableau
// rows stay separate allocations, as fresh solves make them (DESIGN.md
// §7 gives the measurement). The zero value is ready to use. A Workspace
// serves one goroutine at a time.
type Workspace struct {
	tab   [][]float64
	rows  []normRow
	basis []int
	nz    []int
}

// normRow is a constraint normalised to a non-negative right-hand side;
// neg records that its terms enter the tableau negated.
type normRow struct {
	sense Sense
	rhs   float64
	neg   bool
}

// Solve runs two-phase simplex on the workspace's storage and returns what
// the package-level Solve returns for p, bit for bit. The Solution shares
// nothing with the workspace.
func (w *Workspace) Solve(p *Problem) (sol *Solution, err error) {
	m := len(p.Cons)
	n := p.NumVars

	pivots := 0
	snk := obs.Active()
	stop := snk.StartTimer("cisp_lp_solve_seconds")
	defer func() {
		stop()
		snk.Counter("cisp_lp_solves_total").Inc()
		snk.Counter("cisp_lp_pivots_total").Add(int64(pivots))
		if observe != nil && sol != nil {
			observe(p, sol)
		}
	}()

	// Normalise to b ≥ 0, count slack/artificial columns.
	w.rows = resize(w.rows, m)
	rows := w.rows
	for i, c := range p.Cons {
		r := normRow{sense: c.Sense, rhs: c.RHS}
		if r.rhs < 0 {
			r.neg = true
			r.rhs = -r.rhs
			switch r.sense {
			case LE:
				r.sense = GE
			case GE:
				r.sense = LE
			}
		}
		rows[i] = r
	}

	nSlack := 0
	for _, r := range rows {
		if r.sense != EQ {
			nSlack++
		}
	}
	nArt := 0
	for _, r := range rows {
		if r.sense != LE {
			nArt++ // GE and EQ rows need artificials
		}
	}

	total := n + nSlack + nArt
	// Tableau: m rows × (total+1) cols (last col = RHS), plus objective row.
	w.setup(m, total)
	tab, basis, nz := w.tab, w.basis, w.nz

	// Artificial columns follow the slacks, one per GE or EQ row in row
	// order: artStart up to total.
	artStart := n + nSlack
	slackAt := n
	artAt := artStart
	for i, r := range rows {
		for _, t := range p.Cons[i].Terms {
			if t.Var < 0 || t.Var >= n {
				return nil, fmt.Errorf("lp: constraint %d references variable %d out of range [0,%d)", i, t.Var, n)
			}
			c := t.Coeff
			if r.neg {
				c = -c
			}
			tab[i][t.Var] += c
		}
		tab[i][total] = r.rhs
		switch r.sense {
		case LE:
			tab[i][slackAt] = 1
			basis[i] = slackAt
			slackAt++
		case GE:
			tab[i][slackAt] = -1
			slackAt++
			tab[i][artAt] = 1
			basis[i] = artAt
			artAt++
		case EQ:
			tab[i][artAt] = 1
			basis[i] = artAt
			artAt++
		}
	}

	// Phase 1: minimise sum of artificials.
	if nArt > 0 {
		obj := tab[m]
		for j := artStart; j < total; j++ {
			obj[j] = 1
		}
		// Price out the artificial basis.
		for i, b := range basis {
			if obj[b] != 0 {
				f := obj[b]
				for j := 0; j <= total; j++ {
					obj[j] -= f * tab[i][j]
				}
			}
		}
		st, np, err := simplex(tab, basis, total, nz)
		pivots += np
		if err != nil {
			return nil, err
		}
		if st == Unbounded {
			return nil, errors.New("lp: phase-1 unbounded (internal error)")
		}
		if -tab[m][total] > 1e-7 {
			return &Solution{Status: Infeasible, Pivots: pivots}, nil
		}
		// Drive any artificial still in the basis out (degenerate rows). A
		// row with no eligible column is redundant; its artificial stays
		// basic at zero.
		for i, b := range basis {
			if !isArt(b, artStart) {
				continue
			}
			for j := 0; j < artStart; j++ {
				if math.Abs(tab[i][j]) > eps {
					pivot(tab, basis, i, j, total, nz)
					pivots++
					break
				}
			}
		}
	}

	// Phase 2: original objective; forbid artificial columns.
	obj := tab[m]
	for j := range obj {
		obj[j] = 0
	}
	for j := 0; j < n && j < len(p.Objective); j++ {
		obj[j] = p.Objective[j]
	}
	// Blank out artificial columns so they can never re-enter.
	for j := artStart; j < total; j++ {
		for i := 0; i <= m; i++ {
			tab[i][j] = 0
		}
	}
	for i, b := range basis {
		if obj[b] != 0 {
			f := obj[b]
			for j := 0; j <= total; j++ {
				obj[j] -= f * tab[i][j]
			}
		}
	}
	st, np, err := simplex(tab, basis, total, nz)
	pivots += np
	if err != nil {
		return nil, err
	}
	if st == Unbounded {
		return &Solution{Status: Unbounded, Pivots: pivots}, nil
	}

	x := make([]float64, n)
	for i, b := range basis {
		if b < n {
			x[b] = tab[i][total]
		}
	}
	objVal := 0.0
	for j := 0; j < n && j < len(p.Objective); j++ {
		objVal += p.Objective[j] * x[j]
	}
	if p.maximize {
		objVal = -objVal
	}
	return &Solution{Status: Optimal, X: x, Objective: objVal, Pivots: pivots}, nil
}

// setup sizes the tableau to m+1 rows of total+1 zeroed columns, the
// basis to m and pivot's buffer to total+1. A row is reused when its
// capacity suffices and allocated alone when it does not, so the
// workspace never joins rows into one block.
//
//cisp:hotpath
func (w *Workspace) setup(m, total int) {
	if cap(w.tab) < m+1 {
		grown := make([][]float64, m+1) //lint:allow hotpathalloc -- pool miss only; the rows are reused thereafter
		copy(grown, w.tab[:cap(w.tab)])
		w.tab = grown
	}
	w.tab = w.tab[:m+1]
	for i, row := range w.tab {
		if cap(row) < total+1 {
			w.tab[i] = make([]float64, total+1) //lint:allow hotpathalloc -- pool miss only; the row is reused thereafter
			continue
		}
		row = row[:total+1]
		clear(row)
		w.tab[i] = row
	}
	w.basis = resize(w.basis, m)
	w.nz = resize(w.nz, total+1)
}

// resize returns s at length n, on its own backing array when that is
// long enough. The contents are not cleared.
//
//cisp:hotpath
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n) //lint:allow hotpathalloc -- pool miss only; the workspace keeps the storage thereafter
	}
	return s[:n]
}

func isArt(col, artStart int) bool { return col >= artStart }

// simplex runs primal simplex iterations on the tableau until optimality or
// unboundedness, also reporting how many pivots it performed. Dantzig
// pricing with a Bland fallback to guarantee termination on degenerate
// problems. nz is pivot's buffer, total+1 long.
func simplex(tab [][]float64, basis []int, total int, nz []int) (Status, int, error) {
	m := len(basis)
	maxIter := 200 * (m + total + 10)
	blandAfter := maxIter / 2
	for iter := 0; iter < maxIter; iter++ {
		obj := tab[m]
		// Entering column.
		enter := -1
		if iter < blandAfter {
			best := -eps
			for j := 0; j < total; j++ {
				if obj[j] < best {
					best = obj[j]
					enter = j
				}
			}
		} else {
			for j := 0; j < total; j++ { // Bland: first negative
				if obj[j] < -eps {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return Optimal, iter, nil
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			a := tab[i][enter]
			if a > eps {
				r := tab[i][total] / a
				if r < bestRatio-eps || (math.Abs(r-bestRatio) <= eps && (leave == -1 || basis[i] < basis[leave])) {
					bestRatio = r
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded, iter, nil
		}
		pivot(tab, basis, leave, enter, total, nz)
	}
	return Optimal, maxIter, ErrIterationLimit
}

// pivot makes column enter basic in row leave. It gathers the pivot row's
// nonzero columns into nz (total+1 long, the workspace's) while scaling
// them, then updates every other row with a nonzero in column enter at
// those columns only. Each entry it writes gets the dense elimination's
// arithmetic. An entry it skips would have been a zero scaled, or had an
// exact zero subtracted: that changes at most the sign of a zero.
// Pricing and the ratio test compare against ±eps, and the f == 0 skip,
// the price-outs' obj[b] != 0 test and Phase 1's feasibility check read
// −0 as 0. So the pivot sequence and every nonzero entry match the dense
// kernel bit for bit, and a solution can differ only in a zero's sign.
//
//cisp:hotpath
func pivot(tab [][]float64, basis []int, leave, enter, total int, nz []int) {
	pr := tab[leave]
	inv := 1 / pr[enter]
	k := 0
	for j := 0; j <= total; j++ {
		if pr[j] != 0 {
			pr[j] *= inv
			nz[k] = j
			k++
		}
	}
	cols := nz[:k]
	for i, row := range tab {
		if i == leave {
			continue
		}
		f := row[enter]
		if f == 0 {
			continue
		}
		for _, j := range cols {
			row[j] -= f * pr[j]
		}
	}
	basis[leave] = enter
}
