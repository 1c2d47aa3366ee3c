//go:build race

package dist_test

// raceEnabled reports that the race detector is on; sync.Pool then drops a
// share of what is put into it, so allocation budgets cannot be asserted.
const raceEnabled = true
