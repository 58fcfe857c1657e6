package te

// SetSolveFault installs f as the fault check of every simplex solve that
// succeeds, and returns the check it replaced. A non-nil result of f fails
// that solve as a solver error would. The failure tests use it to fail a
// chosen re-solve mid-update.
func SetSolveFault(f func() error) func() error {
	prev := solveFault
	solveFault = f
	return prev
}
