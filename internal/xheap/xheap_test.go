package xheap_test

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"

	"cisp/internal/xheap"
)

func intLess(a, b int) bool { return a < b }

func TestPushPopSortsRandomInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		want := make([]int, n)
		var h []int
		for i := range want {
			v := rng.Intn(1000)
			want[i] = v
			xheap.Push(&h, v, intLess)
		}
		sort.Ints(want)
		got := make([]int, 0, n)
		for len(h) > 0 {
			got = append(got, xheap.Pop(&h, intLess))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: pop order %v, want %v", trial, got, want)
			}
		}
	}
}

func TestInitThenPop(t *testing.T) {
	h := []int{9, 4, 7, 1, 0, 8, 3}
	xheap.Init(h, intLess)
	prev := -1
	for len(h) > 0 {
		v := xheap.Pop(&h, intLess)
		if v < prev {
			t.Fatalf("pop produced %d after %d", v, prev)
		}
		prev = v
	}
}

func TestRemoveArbitraryIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		var h []int
		present := map[int]int{} // value → multiplicity
		for i := 0; i < 100; i++ {
			v := rng.Intn(50)
			xheap.Push(&h, v, intLess)
			present[v]++
		}
		// Remove 30 arbitrary positions, then drain and compare multisets.
		for i := 0; i < 30; i++ {
			idx := rng.Intn(len(h))
			v := xheap.Remove(&h, idx, intLess)
			if present[v] == 0 {
				t.Fatalf("removed %d not in multiset", v)
			}
			present[v]--
		}
		prev := -1
		for len(h) > 0 {
			v := xheap.Pop(&h, intLess)
			if v < prev {
				t.Fatalf("pop order violated: %d after %d", v, prev)
			}
			prev = v
			if present[v] == 0 {
				t.Fatalf("drained %d not in multiset", v)
			}
			present[v]--
		}
		for v, c := range present {
			if c != 0 {
				t.Fatalf("value %d lost from heap (%d copies unaccounted)", v, c)
			}
		}
	}
}

func TestFixAfterKeyChange(t *testing.T) {
	type task struct {
		pri int
		id  int
	}
	less := func(a, b task) bool {
		if a.pri != b.pri {
			return a.pri < b.pri
		}
		return a.id < b.id
	}
	var h []task
	for i, p := range []int{5, 3, 8, 1, 9} {
		xheap.Push(&h, task{pri: p, id: i}, less)
	}
	// Promote whatever sits at the last index to the front.
	h[len(h)-1].pri = 0
	xheap.Fix(h, len(h)-1, less)
	if got := xheap.Pop(&h, less); got.pri != 0 {
		t.Fatalf("after Fix, popped pri %d, want 0", got.pri)
	}
	// Demote the root and make sure it sinks.
	h[0].pri = 100
	xheap.Fix(h, 0, less)
	if got := xheap.Pop(&h, less); got.pri == 100 {
		t.Fatalf("demoted root popped first")
	}
}

func TestPushIsAllocationFreeAtCapacity(t *testing.T) {
	h := make([]int, 0, 1024)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 512; i++ {
			xheap.Push(&h, 512-i, intLess)
		}
		for len(h) > 0 {
			xheap.Pop(&h, intLess)
		}
	})
	if allocs != 0 {
		t.Fatalf("push/pop cycle allocated %.1f objects per run, want 0", allocs)
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty heap did not panic")
		}
	}()
	var h []int
	xheap.Pop(&h, intLess)
}

// tied orders elements by key only, so equal keys are left to the heap.
type tied struct{ key, id int }

func tiedLess(a, b tied) bool { return a.key < b.key }

type stdHeap []tied

func (h stdHeap) Len() int           { return len(h) }
func (h stdHeap) Less(i, j int) bool { return tiedLess(h[i], h[j]) }
func (h stdHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *stdHeap) Push(x any)        { *h = append(*h, x.(tied)) }
func (h *stdHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestMatchesContainerHeapOnTies: Push, Pop, Init and Fix sift exactly as
// container/heap does, so a heap moved over from it pops equal keys in the
// same order.
func TestMatchesContainerHeapOnTies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		var x []tied
		var s stdHeap
		id := 0
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r < 5:
				e := tied{key: rng.Intn(8), id: id}
				id++
				xheap.Push(&x, e, tiedLess)
				heap.Push(&s, e)
			case r < 8 && len(x) > 0:
				if a, b := xheap.Pop(&x, tiedLess), heap.Pop(&s).(tied); a != b {
					t.Fatalf("trial %d op %d: xheap popped %v, container/heap %v", trial, op, a, b)
				}
			case r == 8 && len(x) > 0:
				k := rng.Intn(8)
				x[0].key, s[0].key = k, k
				xheap.Fix(x, 0, tiedLess)
				heap.Fix(&s, 0)
			case r == 9:
				rng.Shuffle(len(x), func(i, j int) {
					x[i], x[j] = x[j], x[i]
					s[i], s[j] = s[j], s[i]
				})
				xheap.Init(x, tiedLess)
				heap.Init(&s)
			}
		}
		for len(x) > 0 {
			if a, b := xheap.Pop(&x, tiedLess), heap.Pop(&s).(tied); a != b {
				t.Fatalf("trial %d drain: xheap popped %v, container/heap %v", trial, a, b)
			}
		}
	}
}
