//go:build race

package core

// raceEnabled: the race detector's runtime allocates on its own, so an
// allocation count taken under it is noise.
const raceEnabled = true
