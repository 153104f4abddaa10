//go:build race

package rep_test

// raceEnabled: the race detector drops sync.Pool items at random, so
// an allocation count that goes through the replay buffer pool is
// noise.
const raceEnabled = true
