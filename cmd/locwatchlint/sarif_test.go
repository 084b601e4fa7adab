package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"locwatch/internal/lint"
)

func TestWriteSARIF(t *testing.T) {
	findings := []lint.Finding{
		{
			Analyzer: "privtaint",
			File:     "/mod/internal/app/app.go",
			Line:     12,
			Column:   3,
			Message:  "raw location data reaches fmt.Printf",
			Related: []lint.RelatedFinding{
				{File: "/mod/internal/helper/helper.go", Line: 7, Column: 2, Message: "via helper.Dump"},
			},
		},
		{
			Analyzer: "latlonbounds",
			File:     "/elsewhere/other.go",
			Line:     3,
			Column:   1,
			Message:  "latitude out of range",
		},
	}
	var buf bytes.Buffer
	if err := writeSARIF(&buf, "/mod", lint.All(), findings); err != nil {
		t.Fatal(err)
	}

	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "locwatchlint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if got, want := len(run.Tool.Driver.Rules), len(lint.All()); got != want {
		t.Errorf("got %d rules, want %d", got, want)
	}
	ruleIDs := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has empty description", r.ID)
		}
		ruleIDs[r.ID] = true
	}
	if !ruleIDs["privtaint"] {
		t.Error("rules are missing privtaint")
	}

	if len(run.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(run.Results))
	}
	r0 := run.Results[0]
	if r0.RuleID != "privtaint" || r0.Level != "warning" {
		t.Errorf("result 0 = %s/%s, want privtaint/warning", r0.RuleID, r0.Level)
	}
	loc := r0.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/app/app.go" {
		t.Errorf("uri = %q, want module-relative internal/app/app.go", loc.ArtifactLocation.URI)
	}
	if loc.Region.StartLine != 12 || loc.Region.StartColumn != 3 {
		t.Errorf("region = %+v, want 12:3", loc.Region)
	}
	if len(r0.RelatedLocations) != 1 {
		t.Fatalf("got %d relatedLocations, want 1", len(r0.RelatedLocations))
	}
	rel := r0.RelatedLocations[0]
	if rel.Message == nil || rel.Message.Text != "via helper.Dump" {
		t.Errorf("related message = %+v, want via helper.Dump", rel.Message)
	}
	if rel.PhysicalLocation.ArtifactLocation.URI != "internal/helper/helper.go" {
		t.Errorf("related uri = %q", rel.PhysicalLocation.ArtifactLocation.URI)
	}

	// A file outside the root keeps its absolute path.
	if uri := run.Results[1].Locations[0].PhysicalLocation.ArtifactLocation.URI; uri != "/elsewhere/other.go" {
		t.Errorf("out-of-root uri = %q, want /elsewhere/other.go", uri)
	}
}

// TestSARIFColdVsWarm is the end-to-end incremental contract at the
// output layer: the SARIF log rendered from a cold cached run and from
// the warm all-hits run that follows must be byte-identical.
func TestSARIFColdVsWarm(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.24\n",
		"a/a.go": "package a\n\nimport \"sync\"\n\ntype Q struct {\n\tmu sync.Mutex\n\tch chan int\n}\n\nfunc (q *Q) Send(v int) {\n\tq.mu.Lock()\n\tdefer q.mu.Unlock()\n\tq.ch <- v\n}\n",
	}
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	opts := lint.CheckOptions{Dir: root, CacheDir: filepath.Join(root, ".lintcache")}
	render := func() []byte {
		t.Helper()
		findings, _, err := lint.Check(opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := writeSARIF(&buf, root, lint.All(), findings); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cold := render()
	if !bytes.Contains(cold, []byte("blockhold")) {
		t.Fatalf("cold SARIF is missing the seeded finding:\n%s", cold)
	}
	warm := render()
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cold and warm SARIF diverge:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
}

// TestSARIFSuppressions pins the suppression mapping: //lint:ignore
// findings surface as kind inSource with the directive's justification,
// and active findings carry no suppressions array at all.
func TestSARIFSuppressions(t *testing.T) {
	findings := []lint.Finding{
		{
			Analyzer: "locksafe", File: "/mod/a.go", Line: 1, Column: 1,
			Message:       "field S.x is written without synchronization",
			Suppressed:    lint.SuppressedInSource,
			Justification: "write happens before close(done)",
		},
		{
			Analyzer: "latlonbounds", File: "/mod/c.go", Line: 3, Column: 1,
			Message: "latitude out of range",
		},
	}
	var buf bytes.Buffer
	if err := writeSARIF(&buf, "/mod", lint.All(), findings); err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	rs := log.Runs[0].Results
	if len(rs) != 2 {
		t.Fatalf("got %d results, want 2", len(rs))
	}
	if len(rs[0].Suppressions) != 1 || rs[0].Suppressions[0].Kind != "inSource" {
		t.Errorf("inSource suppression = %+v", rs[0].Suppressions)
	}
	if got := rs[0].Suppressions[0].Justification; got != "write happens before close(done)" {
		t.Errorf("justification = %q", got)
	}
	if len(rs[1].Suppressions) != 0 {
		t.Errorf("active finding grew suppressions: %+v", rs[1].Suppressions)
	}
}
