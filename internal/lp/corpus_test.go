package lp_test

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cisp/internal/ctlplane/ctltest"
	"cisp/internal/lp"
	"cisp/internal/netsim"
	"cisp/internal/te"
	"cisp/internal/units"
)

// corpusProblem returns seed's LP from one of five families (seed mod 5),
// all with finite coefficients. Rows are drawn through a random point
// x* ≥ 0, so that a system is feasible unless its family breaks it:
//
//   - mixed LE/GE/EQ rows, with a negative right-hand side wherever a·x* < 0;
//   - small-integer degenerate systems: rows tight at x*, scaled duplicates;
//   - the mixed family plus one contradictory pair of rows (infeasible);
//   - a variable no row bounds above that the objective rewards (unbounded);
//   - box-bounded maximisations.
func corpusProblem(seed int64) *lp.Problem {
	rng := rand.New(rand.NewSource(seed))
	family := seed % 5
	n := 3 + rng.Intn(14)
	m := 3 + rng.Intn(12)
	degenerate := family == 1
	coeff := func() float64 {
		if degenerate {
			return float64(rng.Intn(5) - 2)
		}
		return math.Round((rng.Float64()*8-4)*1e3) / 1e3
	}
	xs := make([]float64, n)
	for j := range xs {
		if degenerate {
			xs[j] = float64(rng.Intn(3))
		} else {
			xs[j] = rng.Float64() * 5
		}
	}
	p := &lp.Problem{NumVars: n, Objective: make([]float64, n)}
	for j := range p.Objective {
		p.Objective[j] = coeff()
	}
	// addRow adds a random sparse row over vars [from, n) through x*.
	addRow := func(from int, s lp.Sense, nonneg bool) {
		var vars []int
		var cs []float64
		ax := 0.0
		for j := from; j < n; j++ {
			c := coeff()
			if nonneg {
				c = math.Abs(c)
			}
			if rng.Intn(3) == 0 || c == 0 {
				continue
			}
			vars, cs = append(vars, j), append(cs, c)
			ax += c * xs[j]
		}
		slack := 0.0
		if !degenerate || rng.Intn(2) == 0 {
			slack = math.Round(rng.Float64() * 4)
		}
		switch s {
		case lp.LE:
			p.AddConstraint(vars, cs, s, ax+slack)
		case lp.GE:
			p.AddConstraint(vars, cs, s, ax-slack)
		case lp.EQ:
			p.AddConstraint(vars, cs, s, ax)
		}
		if degenerate && rng.Intn(3) == 0 {
			// A scaled duplicate: a redundant row through the same face.
			k := float64(1 + rng.Intn(3))
			dup := make([]float64, len(cs))
			for t := range cs {
				dup[t] = k * cs[t]
			}
			p.AddConstraint(vars, dup, s, k*p.Cons[len(p.Cons)-1].RHS)
		}
	}
	senses := []lp.Sense{lp.LE, lp.GE, lp.EQ}
	box := func(from int) {
		for j := from; j < n; j++ {
			p.AddConstraint([]int{j}, []float64{1}, lp.LE, math.Ceil(xs[j])+float64(rng.Intn(4)))
		}
	}
	switch family {
	case 0, 1, 2:
		for i := 0; i < m; i++ {
			addRow(0, senses[rng.Intn(3)], false)
		}
		box(0)
		if family == 2 {
			vars := []int{0, 1}
			cs := []float64{1 + rng.Float64(), 1 + rng.Float64()}
			b := rng.Float64() * 4
			p.AddConstraint(vars, cs, lp.LE, b)
			p.AddConstraint(vars, cs, lp.GE, b+1+rng.Float64())
		}
	case 3:
		// x0 (x*_0 = 0) enters only GE rows, with a positive coefficient,
		// so nothing bounds it above, and the objective rewards it.
		xs[0] = 0
		p.Objective[0] = -1 - rng.Float64()
		for i := 0; i < m; i++ {
			s := senses[rng.Intn(3)]
			addRow(1, s, false)
			if s == lp.GE && rng.Intn(2) == 0 {
				c := &p.Cons[len(p.Cons)-1]
				c.Terms = append(c.Terms, lp.Term{Var: 0, Coeff: 0.5 + rng.Float64()})
			}
		}
		box(1)
	case 4:
		obj := make([]float64, n)
		for j := range obj {
			obj[j] = coeff()
		}
		p.Maximize(obj)
		for i := 0; i < m; i++ {
			s := lp.LE
			if rng.Intn(3) == 0 {
				s = lp.GE
			}
			addRow(0, s, true)
		}
		box(0)
	}
	return p
}

// solveRecord accumulates the pinned facts of a sequence of solves: one
// status-and-pivots token per solve, and one FNV-1a hash over every X and
// Objective bit with −0 folded to +0.
type solveRecord struct {
	tokens []string
	h      hash.Hash64
}

func newSolveRecord() *solveRecord { return &solveRecord{h: fnv.New64a()} }

func (r *solveRecord) add(s *lp.Solution, err error) {
	if err != nil {
		if errors.Is(err, lp.ErrIterationLimit) {
			r.tokens = append(r.tokens, "L")
		} else {
			r.tokens = append(r.tokens, "E")
		}
		return
	}
	r.tokens = append(r.tokens, fmt.Sprintf("%c%d", strings.ToUpper(s.Status.String())[0], s.Pivots))
	var b [8]byte
	put := func(v float64) {
		if v == 0 {
			v = 0 // fold −0
		}
		u := math.Float64bits(v)
		for k := range b {
			b[k] = byte(u >> (8 * k))
		}
		r.h.Write(b[:])
	}
	for _, x := range s.X {
		put(x)
	}
	put(s.Objective)
}

func (r *solveRecord) check(t *testing.T, name, wantTokens string, wantHash uint64) {
	t.Helper()
	want := strings.Fields(wantTokens)
	if len(r.tokens) != len(want) {
		t.Fatalf("%s: %d solves, want %d; got\n%s", name, len(r.tokens), len(want), wrap(r.tokens))
	}
	for i := range want {
		if r.tokens[i] != want[i] {
			t.Fatalf("%s: solve %d = %s, want %s; got\n%s", name, i, r.tokens[i], want[i], wrap(r.tokens))
		}
	}
	if got := r.h.Sum64(); got != wantHash {
		t.Fatalf("%s: X/Objective hash %#x, want %#x", name, got, wantHash)
	}
}

func wrap(tokens []string) string {
	var sb strings.Builder
	for i, tok := range tokens {
		if i > 0 && i%20 == 0 {
			sb.WriteByte('\n')
		} else if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(tok)
	}
	return sb.String()
}

// TestCorpusPinned pins every solve of the seeded corpus: status, pivot
// count, and the bits of every X and Objective (−0 folded to +0), as the
// dense elimination computed them. A kernel change must leave all three
// unchanged.
func TestCorpusPinned(t *testing.T) {
	rec := newSolveRecord()
	for seed := int64(0); seed < 200; seed++ {
		rec.add(lp.Solve(corpusProblem(seed)))
	}
	rec.check(t, "corpus", corpusPins, corpusHash)
}

// TestTEStormPinned pins every LP a small te.Controller over
// ctltest.Backbone solves through a seeded fade storm: the initial solve,
// then one warm re-solve per capacity update that changes a link.
func TestTEStormPinned(t *testing.T) {
	bb := ctltest.Backbone()
	links := bb.Links()
	rec := newSolveRecord()
	prev := lp.SetObserver(func(_ *lp.Problem, s *lp.Solution) { rec.add(s, nil) })
	defer lp.SetObserver(prev)
	ctrl, err := te.NewController(bb.Nodes, links, ctltest.Commodities(), te.Config{})
	if err != nil {
		t.Fatal(err)
	}
	levels := []float64{0, 0.25, 0.5, 0.75, 1}
	frac := make([]float64, len(bb.Mw))
	for i := range frac {
		frac[i] = 1
	}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 60; step++ {
		frac[rng.Intn(len(frac))] = levels[rng.Intn(len(levels))]
		eff := append([]netsim.TopoLink(nil), links...)
		for i, f := range frac {
			eff[i].RateBps = units.BitsPerSecond(float64(eff[i].RateBps) * f)
		}
		if _, err := ctrl.UpdateCapacities(eff); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	rec.check(t, "te storm", stormPins, stormHash)
}

// The pins below were recorded with the dense elimination, before the
// kernel eliminated on the pivot row's nonzeros only.
const (
	corpusPins = `
	O26 O27 I10 U10 O7 O7 O20 I5 U5 O19 O7 O30 I9 U9 O4 O7 O12 I6 U12 O10
	O6 O13 I9 U14 O15 O17 O24 I10 U17 O14 O18 O14 I3 U8 O5 O9 O10 I20 U10 O5
	O15 O12 I14 U2 O4 O8 O17 I4 U9 O9 O10 O24 I11 U14 O9 O11 O8 I13 U16 O20
	O15 O10 I5 U9 O19 O19 O9 I10 U6 O9 O21 O9 I2 U7 O20 O12 O7 I1 U2 O8
	O7 O20 I8 U7 O13 O9 O14 I9 U25 O17 O21 O9 I5 U9 O19 O9 O23 I9 U6 O11
	O8 O14 I2 U4 O19 O8 O11 I4 U15 O9 O6 O11 I13 U6 O2 O19 O7 I4 U19 O23
	O12 O10 I1 U17 O27 O2 O7 I14 U15 O9 O8 O3 I1 U3 O6 O30 O19 I6 U5 O14
	O9 O4 I3 U13 O3 O8 O10 I12 U11 O8 O13 O4 I7 U18 O4 O20 O22 I6 U11 O12
	O14 O8 I13 U15 O23 O11 O15 I16 U10 O12 O21 O19 I5 U14 O9 O1 O5 I4 U7 O3
	O11 O4 I13 U10 O18 O16 O19 I5 U12 O12 O10 O17 I2 U10 O6 O9 O21 I9 U7 O16
`
	corpusHash = 0x2f25f48fead18051
	stormPins  = `
	O18 O5 O5 O6 O6 O9 O4 O3 O6 O2 O6 O5 O9 O9 O11 O6 O6 O6 O8 O6
	O6 O8 O8 O9 O13 O15 O13 O7 O7 O7 O10 O6 O11 O6 O8 O8 O8 O11 O7 O9
	O9 O8 O8 O11 O10
`
	stormHash = 0xad5e81bc2bd5b2ef
)
