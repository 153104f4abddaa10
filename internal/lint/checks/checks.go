package checks

import "repro/internal/lint"

// All returns the repository's analyzer suite with default scopes.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		aliasCopy(),
		atomicMix(),
		lockGuard(),
		ctxFlow(),
		clockInject(nil),
		epochGraph(),
		hotPath(),
		obsKey(),
		xmlEscape(nil),
		typeMapReg(),
		api(),
	}
}
