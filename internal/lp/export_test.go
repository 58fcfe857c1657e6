package lp

// SetObserver installs f as the observer of every solve that returns a
// solution, and returns the observer it replaced. The corpus pins use it
// to record the LPs a te.Controller solves.
func SetObserver(f func(*Problem, *Solution)) func(*Problem, *Solution) {
	prev := observe
	observe = f
	return prev
}
