//go:build race

package binser_test

// raceEnabled: the race detector drops sync.Pool items at random, so
// an allocation count that goes through Marshal's scratch pool is
// noise.
const raceEnabled = true
