package checks

import "repro/internal/lint"

// All returns the repository's analyzer suite with default scopes.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		aliasCopy(),
		lockGuard(),
		ctxFlow(),
		clockInject(nil),
		hotPath(),
		xmlEscape(nil),
		typeMapReg(),
		api(),
	}
}
