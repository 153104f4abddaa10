// Package api is the golden fixture for the api analyzer: the package
// whose exported surface is audited. Package user is its caller.
package api

// Helper is used only inside this package.
func Helper() int { return 1 } // want "exported Helper is used only inside package api; unexport it"

// TestOnly is used outside this package only by user's test.
func TestOnly() int { return Helper() } // want "exported TestOnly is used outside package api only by tests"

// Called is used by user's non-test code.
func Called() int { return Helper() }

// Square is used by user.
type Square struct{ side int }

// Area implements an interface user declares, which calls it.
func (s Square) Area() int { return s.side * s.side }

// Side has no caller at all.
func (s Square) Side() int { return s.side } // want "exported Square.Side is used by no non-test code; delete it"

// Waived has no caller but carries a waiver.
//
//lint:ignore api the fixture's waiver case
func Waived() int { return 2 }
