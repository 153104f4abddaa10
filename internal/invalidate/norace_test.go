//go:build !race

package invalidate

const raceEnabled = false
