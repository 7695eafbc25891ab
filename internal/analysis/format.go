package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// format.go renders diagnostics machine-readably: SARIF 2.1.0 for
// GitHub code scanning, and GitHub workflow annotation commands for
// inline PR review comments.

// SARIF 2.1.0 document shape, the subset GitHub code scanning consumes.
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
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF writes the diagnostics as a single-run SARIF 2.1.0 log.
// Every analyzer that could have fired is declared as a rule (plus the
// synthetic "audit" rule), so rule metadata is stable across runs.
// Rule ids are namespaced "taqvet/<analyzer>" so the analyzer name
// survives into every result's ruleId even when logs from several
// tools are merged by a SARIF consumer.
func WriteSARIF(w io.Writer, diags []Diagnostic) error {
	var rules []sarifRule
	for _, a := range All() {
		rules = append(rules, sarifRule{ID: sarifRuleID(a.Name), ShortDescription: sarifMessage{Text: a.Doc}})
	}
	rules = append(rules, sarifRule{
		ID:               sarifRuleID("audit"),
		ShortDescription: sarifMessage{Text: "stale //taq:allow suppressions and malformed //taq: directives"},
	})
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  sarifRuleID(d.Analyzer),
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: sarifURI(d.Pos.Filename)},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "taqvet", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// sarifRuleID namespaces an analyzer name for SARIF consumers.
func sarifRuleID(analyzer string) string { return "taqvet/" + analyzer }

// sarifURI renders the filename as a forward-slash relative URI, the
// form GitHub code scanning maps back onto the repository tree.
func sarifURI(filename string) string {
	return strings.ReplaceAll(filename, "\\", "/")
}

// WriteGitHub writes the diagnostics as GitHub Actions workflow
// annotation commands, which render as inline errors in the PR diff.
func WriteGitHub(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		// The annotation grammar reserves %, \r, \n; escape per the
		// workflow-command spec.
		msg := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(d.Message)
		if _, err := fmt.Fprintf(w, "::error file=%s,line=%d,col=%d,title=taqvet/%s::%s\n",
			d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, msg); err != nil {
			return err
		}
	}
	return nil
}
