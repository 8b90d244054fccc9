package detect

// SetSharedBuildHook installs f as the observer of every memoized
// computation and returns a function restoring the previous observer.
// The caller must not run detectors concurrently with the swap.
func SetSharedBuildHook(f func(kind, fn string)) (restore func()) {
	old := sharedBuilt
	sharedBuilt = f
	return func() { sharedBuilt = old }
}
