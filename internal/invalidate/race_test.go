//go:build race

package invalidate

// raceEnabled: the race detector's runtime allocates on its own, so an
// allocation count taken under it is noise.
const raceEnabled = true
