package lp_test

import (
	"fmt"
	"math"
	"testing"

	"cisp/internal/lp"
)

// outOfRange returns a copy of p with one more row, last, that references
// variable NumVars: every solve of it fails after filling the rows before.
func outOfRange(p *lp.Problem) *lp.Problem {
	q := *p
	q.Cons = append(append([]lp.Constraint(nil), p.Cons...),
		lp.Constraint{Terms: []lp.Term{{Var: 0, Coeff: 1}, {Var: p.NumVars, Coeff: 1}}, Sense: lp.LE, RHS: 1})
	return &q
}

// sameAsFresh solves p on ws and with lp.Solve and requires the same
// error text, status, pivot count and the same bits of every X and of the
// objective, −0 included.
func sameAsFresh(t *testing.T, name string, ws *lp.Workspace, p *lp.Problem) {
	t.Helper()
	got, gotErr := ws.Solve(p)
	want, wantErr := lp.Solve(p)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: workspace error %v, fresh error %v", name, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if got.Status != want.Status || got.Pivots != want.Pivots || len(got.X) != len(want.X) {
		t.Fatalf("%s: workspace %v after %d pivots with %d vars, fresh %v after %d with %d",
			name, got.Status, got.Pivots, len(got.X), want.Status, want.Pivots, len(want.X))
	}
	for j := range want.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			t.Fatalf("%s: X[%d] = %v on the workspace, %v fresh", name, j, got.X[j], want.X[j])
		}
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("%s: objective %v on the workspace, %v fresh", name, got.Objective, want.Objective)
	}
}

// TestWorkspaceMatchesFresh solves the 200 corpus LPs in order and then in
// reverse on one Workspace, so its storage grows and shrinks between
// solves and follows infeasible and unbounded returns; after every tenth
// LP it also solves a copy with an out-of-range variable, which fails
// with the tableau half filled. Every solve must equal a fresh one bit
// for bit.
func TestWorkspaceMatchesFresh(t *testing.T) {
	var order []int64
	for seed := int64(0); seed < 200; seed++ {
		order = append(order, seed)
	}
	for seed := int64(199); seed >= 0; seed-- {
		order = append(order, seed)
	}
	var ws lp.Workspace
	grew, shrank := false, false
	prev := 0
	for k, seed := range order {
		p := corpusProblem(seed)
		size := len(p.Cons) * p.NumVars
		grew, shrank = grew || size > prev, shrank || size < prev
		prev = size
		sameAsFresh(t, fmt.Sprint("corpus ", seed), &ws, p)
		if k%10 == 9 {
			sameAsFresh(t, fmt.Sprint("out-of-range copy of corpus ", seed), &ws, outOfRange(p))
		}
	}
	if !grew || !shrank {
		t.Fatalf("corpus order never grew (%v) or never shrank (%v) the problem", grew, shrank)
	}
}

// FuzzWorkspaceMatchesFresh solves a pair of corpus LPs on one Workspace,
// the first optionally with an out-of-range variable, and holds both to
// fresh solves.
func FuzzWorkspaceMatchesFresh(f *testing.F) {
	f.Add(uint32(0), uint32(1), false)
	f.Add(uint32(12), uint32(3), false)
	f.Add(uint32(7), uint32(13), true)
	f.Add(uint32(54), uint32(2), true)
	f.Fuzz(func(t *testing.T, a, b uint32, bad bool) {
		var ws lp.Workspace
		first := corpusProblem(int64(a))
		if bad {
			first = outOfRange(first)
		}
		sameAsFresh(t, "first", &ws, first)
		sameAsFresh(t, "second", &ws, corpusProblem(int64(b)))
	})
}
