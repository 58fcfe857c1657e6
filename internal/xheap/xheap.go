// Package xheap provides generic binary-heap operations on plain slices.
// It stands in for container/heap, whose interface converts every pushed
// element to interface{}, which allocates for any element wider than a
// pointer. It serves the Dijkstra searches, the fluid engine's heaps,
// design's lazy greedy and the page replay. The packet engine's event
// queue is netsim's own 4-ary heap instead: its (time, sequence) keys are
// unique, so its shape cannot change the pop order, while some of these
// callers hold tied keys and rely on the binary sift order below.
// These functions are monomorphized over the element type and a
// caller-supplied ordering, so a push is an append into the backing array
// and nothing escapes. Push, Pop, Init and Fix sift exactly as
// container/heap does, so a heap moved over from it pops in the same
// order, ties included.
//
// Pass a top-level function (not a capturing closure) as less so the call
// site itself stays allocation-free. Ties must be broken deterministically
// in less (DESIGN.md §9): heaps are not stable, so an ordering that leaves
// equal elements unordered lets insertion history leak into pop order.
package xheap

// Push adds x to the heap *h ordered by less.
//
//cisp:hotpath
func Push[T any](h *[]T, x T, less func(a, b T) bool) {
	//lint:allow hotpathalloc -- amortized growth of the heap's backing array
	*h = append(*h, x)
	up(*h, len(*h)-1, less)
}

// Pop removes and returns the minimum element. It panics on an empty heap,
// like container/heap.
//
//cisp:hotpath
func Pop[T any](h *[]T, less func(a, b T) bool) T {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	down(s[:n], 0, less)
	x := s[n]
	var zero T
	s[n] = zero // release references held by the vacated slot
	*h = s[:n]
	return x
}

// Remove removes and returns the element at index i.
//
//cisp:hotpath
func Remove[T any](h *[]T, i int, less func(a, b T) bool) T {
	s := *h
	n := len(s) - 1
	if i != n {
		s[i], s[n] = s[n], s[i]
		if !down(s[:n], i, less) {
			up(s, i, less)
		}
	}
	x := s[n]
	var zero T
	s[n] = zero
	*h = s[:n]
	return x
}

// Init establishes the heap invariant over an arbitrarily ordered slice in
// O(n).
func Init[T any](h []T, less func(a, b T) bool) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(h, i, less)
	}
}

// Fix restores the invariant after the element at index i changed its key.
//
//cisp:hotpath
func Fix[T any](h []T, i int, less func(a, b T) bool) {
	if !down(h, i, less) {
		up(h, i, less)
	}
}

func up[T any](h []T, j int, less func(a, b T) bool) {
	for j > 0 {
		i := (j - 1) / 2
		if !less(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// down sifts h[i] toward the leaves; it reports whether the element moved.
func down[T any](h []T, i int, less func(a, b T) bool) bool {
	n := len(h)
	i0 := i
	for {
		left := 2*i + 1
		if left >= n || left < 0 { // left < 0 after int overflow
			break
		}
		j := left
		if right := left + 1; right < n && less(h[right], h[left]) {
			j = right
		}
		if !less(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return i > i0
}
