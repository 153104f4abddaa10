//go:build !race

package repro_test

const raceEnabled = false
