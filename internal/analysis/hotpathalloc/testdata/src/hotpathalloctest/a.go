// Package hotpathalloctest is golden testdata for the hotpathalloc
// analyzer: every allocation shape inside //cisp:hotpath functions,
// stack-safe negatives, the unannotated control and the //lint:allow
// escape hatch.
package hotpathalloctest

type item struct{ a, b int }

//cisp:hotpath
func allocShapes(s []int) {
	p := &item{a: 1} // want `&composite literal`
	_ = p
	sl := []int{1, 2} // want `slice literal`
	_ = sl
	m := map[int]int{} // want `map literal`
	_ = m
	b := make([]int, 4) // want `hot path heap-allocates: make`
	_ = b
	n := new(item) // want `hot path heap-allocates: new`
	_ = n
	s = append(s, 1) // want `append can grow its backing array`
	_ = s
}

//cisp:hotpath
func boxing(xs *[]interface{}, it item) {
	push(xs, it) // want `boxes this .*item argument`
}

func push(xs *[]interface{}, x interface{}) { *xs = append(*xs, x) }

//cisp:hotpath
func pointerShapedIsFine(xs *[]interface{}, it *item) {
	push(xs, it) // pointers are interface-direct: no finding
}

//cisp:hotpath
func variadicSlice() {
	sink("a", "b") // want `variadic call builds its argument slice`
}

func sink(args ...string) {}

//cisp:hotpath
func capturingClosure(k int) func() int {
	f := func() int { return k } // want `closure captures k`
	return f
}

//cisp:hotpath
func staticClosureIsFine() func() int {
	f := func() int { return 42 } // captures nothing: no finding
	return f
}

type counter struct{ n int }

func (c *counter) tick() { c.n++ }

type ticker interface{ tick() }

func later(fn func()) { fn() }

//cisp:hotpath
func methodValues(c *counter, t ticker) {
	later(c.tick) // want `method value c.tick binds its receiver`
	f := t.tick   // want `method value t.tick binds its receiver`
	_ = f
	c.tick()             // a call binds nothing: no finding
	(c.tick)()           // nor does a parenthesized one
	g := (*counter).tick // method expression: a static func, no finding
	g(c)
}

//cisp:hotpath
func stringConcat(a, b string) string {
	return a + b // want `string concatenation`
}

//cisp:hotpath
func stringConv(bs []byte) string {
	return string(bs) // want `string/slice conversion copies`
}

//cisp:hotpath
func valueLiteralIsFine() item {
	return item{a: 1, b: 2} // value struct literal stays on the stack: no finding
}

// unannotated: the same shapes report nothing.
func notHot() []int {
	return []int{1, 2, 3}
}

//cisp:hotpath
func allowedAmortized(s []int) []int {
	return append(s, 1) //lint:allow hotpathalloc -- testdata: amortized growth, capacity reused across events
}
