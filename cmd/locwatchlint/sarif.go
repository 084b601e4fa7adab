package main

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"

	"locwatch/internal/lint"
	"locwatch/internal/lint/analysis"
)

// SARIF 2.1.0 output, the interchange format CI annotation viewers
// consume. Only the subset the suite needs is modelled: one run, one
// rule per analyzer, one result per finding.

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
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID       string             `json:"ruleId"`
	Level        string             `json:"level"`
	Message      sarifMessage       `json:"message"`
	Locations    []sarifLocation    `json:"locations"`
	Suppressions []sarifSuppression `json:"suppressions,omitempty"`
}

// sarifSuppression marks a result as silenced without dropping it —
// viewers render it greyed out instead of as a failure. Kind is
// "inSource": //lint:ignore directives are the only suppressions.
type sarifSuppression struct {
	Kind          string `json:"kind"`
	Justification string `json:"justification,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// writeSARIF renders the findings of one run as a SARIF log. root, when
// non-empty, is stripped from file paths so the URIs are repo-relative
// (what CI annotation viewers expect).
func writeSARIF(w io.Writer, root string, analyzers []*analysis.Analyzer, findings []lint.Finding) error {
	rules := make([]sarifRule, len(analyzers))
	for i, a := range analyzers {
		doc := a.Doc
		if nl := strings.IndexByte(doc, '\n'); nl >= 0 {
			doc = doc[:nl]
		}
		rules[i] = sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: doc}}
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		r := sarifResult{
			RuleID:    f.Analyzer,
			Level:     "warning",
			Message:   sarifMessage{Text: f.Message},
			Locations: []sarifLocation{sarifLoc(root, f.File, f.Line, f.Column)},
		}
		if f.Suppressed == lint.SuppressedInSource {
			r.Suppressions = []sarifSuppression{{Kind: "inSource", Justification: f.Justification}}
		}
		results = append(results, r)
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "locwatchlint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

func sarifLoc(root, file string, line, col int) sarifLocation {
	if root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	return sarifLocation{PhysicalLocation: sarifPhysical{
		ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(file)},
		Region:           sarifRegion{StartLine: line, StartColumn: col},
	}}
}
