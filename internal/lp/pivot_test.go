package lp

import (
	"math"
	"math/rand"
	"testing"
)

// densePivot is the dense elimination pivot replaced: it scales every
// column of the pivot row and updates every column of each row with a
// nonzero in column enter. It is the reference pivot must match.
func densePivot(tab [][]float64, basis []int, leave, enter, total int) {
	m := len(basis)
	pr := tab[leave]
	pv := pr[enter]
	inv := 1 / pv
	for j := 0; j <= total; j++ {
		pr[j] *= inv
	}
	for i := 0; i <= m; i++ {
		if i == leave {
			continue
		}
		f := tab[i][enter]
		if f == 0 {
			continue
		}
		row := tab[i]
		for j := 0; j <= total; j++ {
			row[j] -= f * pr[j]
		}
	}
	basis[leave] = enter
}

// pivotCase sizes one random tableau and the pivots run on it.
type pivotCase struct {
	seed       int64
	rows, cols uint8 // 1+rows%32 constraint rows, 1+cols%96 non-RHS columns
	fill       uint8 // about 1+fill%100 percent of entries are nonzero
	steps      uint8 // 1+steps%16 successive pivots
}

var pivotCases = []pivotCase{
	{1, 3, 5, 40, 3},
	{2, 8, 20, 10, 6},
	{3, 12, 40, 5, 8},
	{4, 6, 6, 100, 4},
	{5, 20, 60, 3, 10},
	{6, 1, 4, 50, 1},
	{7, 10, 30, 25, 8},
	{8, 15, 15, 60, 12},
}

// sparseTableau draws the case's finite tableau, objective row and RHS
// column included. Entries mix
// small integers, whose products cancel to exact zeros, with reals of
// either sign across six decades.
func sparseTableau(c pivotCase) (tab [][]float64, basis []int, total int) {
	rng := rand.New(rand.NewSource(c.seed))
	m := 1 + int(c.rows)%32
	total = 1 + int(c.cols)%96
	fill := 1 + int(c.fill)%100
	tab = make([][]float64, m+1)
	for i := range tab {
		tab[i] = make([]float64, total+1)
		for j := range tab[i] {
			if rng.Intn(100) >= fill {
				continue
			}
			if rng.Intn(2) == 0 {
				tab[i][j] = float64(rng.Intn(7) - 3)
			} else {
				tab[i][j] = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(7)-3))
			}
		}
	}
	basis = make([]int, m)
	for i := range basis {
		basis[i] = rng.Intn(total)
	}
	return tab, basis, total
}

// runPivotCase pivots a copy of the case's tableau with both kernels,
// step after step, on (leave, enter) pairs the simplex could choose: a
// constraint row and a non-RHS column whose entry exceeds eps in
// magnitude. After every step each entry and the basis must be equal.
func runPivotCase(t *testing.T, c pivotCase) {
	t.Helper()
	tab, basis, total := sparseTableau(c)
	ref := make([][]float64, len(tab))
	for i := range tab {
		ref[i] = append([]float64(nil), tab[i]...)
	}
	refBasis := append([]int(nil), basis...)
	nz := make([]int, total+1)
	rng := rand.New(rand.NewSource(c.seed + 1))
	for step := 0; step < 1+int(c.steps)%16; step++ {
		type pair struct{ leave, enter int }
		var pairs []pair
		for i := range basis {
			for j := 0; j < total; j++ {
				if math.Abs(tab[i][j]) > eps {
					pairs = append(pairs, pair{i, j})
				}
			}
		}
		if len(pairs) == 0 {
			return
		}
		p := pairs[rng.Intn(len(pairs))]
		densePivot(ref, refBasis, p.leave, p.enter, total)
		pivot(tab, basis, p.leave, p.enter, total, nz)
		for i := range tab {
			for j := range tab[i] {
				if tab[i][j] != ref[i][j] {
					t.Fatalf("case %+v step %d pivot (%d,%d): entry (%d,%d) = %v, dense %v",
						c, step, p.leave, p.enter, i, j, tab[i][j], ref[i][j])
				}
			}
		}
		for i := range basis {
			if basis[i] != refBasis[i] {
				t.Fatalf("case %+v step %d: basis %v, dense %v", c, step, basis, refBasis)
			}
		}
	}
}

// TestPivotMatchesDense holds the nonzero-column elimination to the dense
// kernel: equal entries (±0 alike) and an equal basis after every pivot.
func TestPivotMatchesDense(t *testing.T) {
	for _, c := range pivotCases {
		runPivotCase(t, c)
	}
	for seed := int64(100); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		runPivotCase(t, pivotCase{seed, uint8(rng.Intn(32)), uint8(rng.Intn(96)), uint8(rng.Intn(100)), uint8(rng.Intn(16))})
	}
}

func FuzzPivotMatchesDense(f *testing.F) {
	for _, c := range pivotCases {
		f.Add(c.seed, c.rows, c.cols, c.fill, c.steps)
	}
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, fill, steps uint8) {
		runPivotCase(t, pivotCase{seed, rows, cols, fill, steps})
	})
}
