package lint

import (
	"path/filepath"
	"strings"

	"locwatch/internal/lint/analysis"
	"locwatch/internal/lint/loader"
)

// CheckOptions configures one lint run.
type CheckOptions struct {
	// Dir is the module root (or any directory inside it) the patterns
	// resolve against. Empty means ".".
	Dir string
	// Patterns are go-list package patterns; empty means ./...
	Patterns []string
	// Analyzers is the suite to run; nil means All().
	Analyzers []*analysis.Analyzer
}

// Check runs the suite over the packages matching the options. Finding
// paths are module-relative (slash-separated), so reports do not
// depend on where the module is checked out.
func Check(opts CheckOptions) ([]Finding, error) {
	dir := opts.Dir
	if dir == "" {
		dir = "."
	}
	root, err := loader.ModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	analyzers := opts.Analyzers
	if analyzers == nil {
		analyzers = All()
	}
	mod, err := loader.GoListDeps(root, opts.Patterns...)
	if err != nil {
		return nil, err
	}
	pkgs, err := mod.Load()
	if err != nil {
		return nil, err
	}
	findings, err := Run(pkgs, analyzers)
	if err != nil {
		return nil, err
	}
	for i := range findings {
		findings[i].File = relPath(root, findings[i].File)
	}
	return findings, nil
}

// relPath rewrites a finding path to be module-relative and
// slash-separated. Paths outside the module stay absolute.
func relPath(root, file string) string {
	if root == "" || file == "" {
		return file
	}
	rel, err := filepath.Rel(root, file)
	if err != nil || strings.HasPrefix(rel, "..") {
		return file
	}
	return filepath.ToSlash(rel)
}
