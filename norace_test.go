//go:build !race

package cubetree_test

const raceEnabled = false
