//go:build race

package soap_test

// raceEnabled: the race detector drops sync.Pool items at random, so
// an allocation count that goes through Parse's parser pool is noise.
const raceEnabled = true
