//go:build race

package server_test

// raceEnabled: the race detector drops sync.Pool items at random, so
// an allocation count that goes through the parser and encoder pools is
// noise.
const raceEnabled = true
