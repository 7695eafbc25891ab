package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestExitCodes pins the driver contract: 0 clean, 1 findings, 2 for
// usage errors and load/type-check failures — never 1 for a broken
// package, so CI can tell "code has findings" from "tool could not run".
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		want   int
		stderr string // required substring of stderr, "" for none
	}{
		{"clean package", []string{"../../internal/sim"}, 0, ""},
		{"findings", []string{"../../internal/analysis/testdata/src/simtime"}, 1, "finding(s)"},
		{"broken package exits 2 and names it", []string{"../../internal/analysis/testdata/src/broken"}, 2, "testdata/src/broken"},
		{"unknown format", []string{"-format", "xml", "./..."}, 2, "unknown format"},
		{"json is not a format", []string{"-format", "json", "./..."}, 2, "unknown format"},
		{"unknown analyzer", []string{"-only", "nosuch", "./..."}, 2, "unknown analyzer"},
		{"audit with only", []string{"-audit", "-only", "wallclock", "./..."}, 2, "-audit needs the full suite"},
		{"malformed directives fail -audit", []string{"-audit", "../../internal/analysis/testdata/src/malformed"}, 1, "finding(s)"},
		{"malformed directives pass without -audit", []string{"../../internal/analysis/testdata/src/malformed"}, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(tc.args, &stdout, &stderr)
			if got != tc.want {
				t.Errorf("run(%v) = %d, want %d (stderr: %s)", tc.args, got, tc.want, stderr.String())
			}
			if tc.stderr != "" && !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), tc.stderr)
			}
		})
	}
}

// TestListMatchesDocs keeps docs/static-analysis.md in step with the
// suite: its analyzer headings (### `name`), in order, are exactly the
// names -list prints, so renaming, adding, or retiring an analyzer
// without its section fails the build.
func TestListMatchesDocs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit = %d, want 0; stderr: %s", code, stderr.String())
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}
	doc, err := os.ReadFile("../../docs/static-analysis.md")
	if err != nil {
		t.Fatal(err)
	}
	var headed []string
	for _, m := range regexp.MustCompile("(?m)^### `([^`]+)`$").FindAllStringSubmatch(string(doc), -1) {
		headed = append(headed, m[1])
	}
	if got, want := strings.Join(headed, " "), strings.Join(listed, " "); got != want {
		t.Errorf("docs/static-analysis.md analyzer headings:\n  %s\nwant the -list names:\n  %s", got, want)
	}
}

// TestRootsOutput pins the -roots contract CI's baseline cmp relies
// on: "root <name>" lines for each declared //taq:hotpath function,
// per-package closure counts, a total line, exit 0 even though the
// fixture has findings, and byte-identical output across runs.
func TestRootsOutput(t *testing.T) {
	const fixture = "../../internal/analysis/testdata/src/hotpath"
	var first string
	for i := 0; i < 2; i++ {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-roots", fixture}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr.String())
		}
		if i == 0 {
			first = stdout.String()
			continue
		}
		if stdout.String() != first {
			t.Fatalf("-roots output not byte-stable:\n%s\nvs\n%s", first, stdout.String())
		}
	}
	for _, want := range []string{"root ", "hotpath.Root", "package ", "total ", "from 1 roots"} {
		if !strings.Contains(first, want) {
			t.Errorf("-roots output missing %q:\n%s", want, first)
		}
	}
}

// TestAnnotationsOutput pins the -annotations contract CI's baseline
// cmp relies on: one line per contract annotation in fixed order, a
// total line, exit 0 regardless of findings, and byte-identical output
// across runs.
func TestAnnotationsOutput(t *testing.T) {
	fixtures := []string{
		"-annotations",
		"../../internal/analysis/testdata/src/shardown",
		"../../internal/analysis/testdata/src/shardown/shardsub",
		"../../internal/analysis/testdata/src/atomicfield",
		"../../internal/analysis/testdata/src/layout",
	}
	var first string
	for i := 0; i < 2; i++ {
		var stdout, stderr bytes.Buffer
		if code := run(fixtures, &stdout, &stderr); code != 0 {
			t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr.String())
		}
		if i == 0 {
			first = stdout.String()
			continue
		}
		if stdout.String() != first {
			t.Fatalf("-annotations output not byte-stable:\n%s\nvs\n%s", first, stdout.String())
		}
	}
	for _, want := range []string{
		"shardowned taq/internal/analysis/testdata/src/shardown.Owned",
		"crossshard taq/internal/analysis/testdata/src/shardown.Handoff",
		"atomic taq/internal/analysis/testdata/src/atomicfield.shared.hits",
		"layout taq/internal/analysis/testdata/src/layout.rec size=24 align=8 hotbytes=0..16",
		"total 2 shardowned, 2 crossshard, 3 atomic, 5 layout",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("-annotations output missing %q:\n%s", want, first)
		}
	}
}

// TestSARIFShape validates the 2.1.0 envelope of -format sarif: schema,
// version, one run with driver name and rules, and results whose
// locations carry file/line.
func TestSARIFShape(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-format", "sarif", "../../internal/analysis/testdata/src/simtime"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (fixture has findings); stderr: %s", code, stderr.String())
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
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not JSON: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-schema-2.1.0") {
		t.Errorf("version = %q, $schema = %q; want SARIF 2.1.0", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	r := log.Runs[0]
	if r.Tool.Driver.Name != "taqvet" {
		t.Errorf("driver name = %q, want taqvet", r.Tool.Driver.Name)
	}
	if len(r.Tool.Driver.Rules) == 0 || len(r.Results) == 0 {
		t.Fatalf("rules = %d, results = %d; want both non-empty", len(r.Tool.Driver.Rules), len(r.Results))
	}
	for _, res := range r.Results {
		if res.RuleID == "" || res.Level != "error" || len(res.Locations) != 1 {
			t.Errorf("malformed result: %+v", res)
			continue
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI == "" || loc.Region.StartLine == 0 {
			t.Errorf("result lacks file/line: %+v", res)
		}
	}
}

// TestGitHubFormat checks the workflow-command annotation grammar.
func TestGitHubFormat(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-format", "github", "../../internal/analysis/testdata/src/simtime"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if !strings.HasPrefix(line, "::error file=") || !strings.Contains(line, "title=taqvet/") {
			t.Errorf("not a workflow annotation: %q", line)
		}
	}
}
