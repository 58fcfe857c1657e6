package los

// SetObserver installs f as the observer of every hop PointFeasible
// samples, and returns the observer it replaced. TestStep1WorkPinned uses
// it to count the work of the plan world's candidate hops.
func SetObserver(f func(points, octaves, clutter int)) func(points, octaves, clutter int) {
	prev := observe
	observe = f
	return prev
}
