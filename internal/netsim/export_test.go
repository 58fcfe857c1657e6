package netsim

// SetFluidObserver installs fn as the observer of every fluid scenario
// run, handed the finished engine, and returns the observer it replaced.
// The work ratchet uses it to read the allocator's round counts.
func SetFluidObserver(fn func(*FluidSim)) func(*FluidSim) {
	prev := fluidObserve
	fluidObserve = fn
	return prev
}

// Rounds returns how many bottleneck rounds the allocator has run fresh
// and how many it replayed from the previous allocation's log.
func (f *FluidSim) Rounds() (fresh, replayed int64) {
	return f.freshRounds, f.replayedRounds
}

// Subtractions returns how many residual subtractions the allocator has
// made: a route's weight and share taken off one link.
func (f *FluidSim) Subtractions() int64 { return f.subtractions }
