package lint

import (
	"encoding/json"
	"sort"
)

// SARIF renders diagnostics as a SARIF 2.1.0 log, the interchange
// format GitHub code scanning ingests: one run, one rule per analyzer
// (so findings group and link to the invariant's description), one
// result per diagnostic. File URIs are the base-relative slash-separated paths
// Run already produced, anchored at %SRCROOT% so the consumer resolves
// them against the checkout.
func SARIF(diags []Diagnostic, analyzers []*Analyzer) ([]byte, error) {
	rules := make([]sarifRule, 0, len(analyzers)+1)
	ruleIndex := make(map[string]bool)
	for _, a := range analyzers {
		rules = append(rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifText{Text: a.Doc},
		})
		ruleIndex[a.Name] = true
	}
	// The framework's own findings (malformed or unknown //lint:ignore
	// directives) report under "lint"; give them a rule too so every
	// result has one.
	for _, d := range diags {
		if !ruleIndex[d.Check] {
			rules = append(rules, sarifRule{
				ID:               d.Check,
				ShortDescription: sarifText{Text: "lint framework diagnostics (suppression hygiene)"},
			})
			ruleIndex[d.Check] = true
		}
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Check,
			Level:   "error",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: d.File, URIBaseID: "%SRCROOT%"},
					Region:           sarifRegion{StartLine: d.Line, StartColumn: d.Col},
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "wscachelint", Rules: rules}},
			Results: results,
		}},
	}
	return json.MarshalIndent(log, "", "  ")
}

// The subset of the SARIF 2.1.0 object model the driver emits.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}
