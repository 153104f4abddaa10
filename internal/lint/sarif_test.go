package lint

import (
	"encoding/json"
	"testing"
)

// TestSARIFShape pins the parts of the SARIF output GitHub code
// scanning keys on: schema/version, driver name, one rule per
// analyzer (sorted, with synthesized rules for checks not in the
// run's analyzer list), and results carrying %SRCROOT%-anchored
// locations.
func TestSARIFShape(t *testing.T) {
	diags := []Diagnostic{
		{Check: "lockguard", File: "internal/a/a.go", Line: 3, Col: 5, Message: "guarded field read without its mutex"},
		{Check: "lint", File: "internal/b/b.go", Line: 9, Col: 1, Message: "malformed directive"},
	}
	analyzers := []*Analyzer{
		{Name: "hotpath", Doc: "hot-path hygiene"},
		{Name: "lockguard", Doc: "guarded fields only under their mutex"},
	}
	raw, err := SARIF(diags, analyzers)
	if err != nil {
		t.Fatal(err)
	}

	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(raw, &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || log.Schema == "" {
		t.Errorf("version/schema = %q/%q, want 2.1.0 and a schema URI", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("want exactly one run, got %d", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "wscachelint" {
		t.Errorf("driver name = %q, want wscachelint", run.Tool.Driver.Name)
	}
	var ids []string
	for _, r := range run.Tool.Driver.Rules {
		ids = append(ids, r.ID)
	}
	// Sorted, and including a synthesized rule for the framework's own
	// "lint" check even though no analyzer carries that name.
	if len(ids) != 3 || ids[0] != "hotpath" || ids[1] != "lint" || ids[2] != "lockguard" {
		t.Errorf("rule ids = %v, want [hotpath lint lockguard]", ids)
	}
	if len(run.Results) != 2 {
		t.Fatalf("want 2 results, got %d", len(run.Results))
	}
	first := run.Results[0]
	if first.RuleID != "lockguard" || first.Level != "error" {
		t.Errorf("result ruleId/level = %q/%q", first.RuleID, first.Level)
	}
	loc := first.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/a/a.go" || loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
		t.Errorf("artifact location = %+v", loc.ArtifactLocation)
	}
	if loc.Region.StartLine != 3 {
		t.Errorf("startLine = %d, want 3", loc.Region.StartLine)
	}
}
