//go:build race

package repro_test

// raceEnabled: the race detector allocates on its own and drops
// sync.Pool items at random, so allocation counts are noise under it.
const raceEnabled = true
