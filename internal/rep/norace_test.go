//go:build !race

package rep_test

const raceEnabled = false
