package checks

import "repro/internal/lint"

// All returns the repository's analyzer suite with default scopes.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		lockGuard(),
		ctxFlow(),
		clockInject(nil),
		hotPath(),
		xmlEscape(nil),
		api(),
	}
}
