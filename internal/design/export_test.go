package design

// Test hooks for the external search pins: GreedyILP and Exact together
// with the number of branch-and-bound nodes their search visited.
var (
	GreedyILPNodes = greedyILP
	ExactNodes     = exact
)
