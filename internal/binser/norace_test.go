//go:build !race

package binser_test

const raceEnabled = false
