// Package analysistest checks analyzers against golden fixture
// packages, mirroring golang.org/x/tools/go/analysis/analysistest: a
// fixture line that should trigger a diagnostic carries a trailing
//
//	// want `regexp`
//
// comment (several backquoted regexps for several diagnostics on one
// line). The runner fails the test on any unmatched expectation and on
// any diagnostic without an expectation, so fixtures prove both that a
// seeded bug is caught and that the fixed form stays silent.
package analysistest

import (
	"fmt"
	"regexp"
	"testing"

	"locwatch/internal/lint"
	"locwatch/internal/lint/analysis"
	"locwatch/internal/lint/loader"
)

// wantRe captures every backquoted pattern of a want comment.
var (
	wantLineRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
	wantArgRe  = regexp.MustCompile("`([^`]*)`")
)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

// Run loads each fixture package below srcRoot (a GOPATH-style src
// directory) and applies the analyzer per package, comparing
// diagnostics against the fixtures' want comments.
func Run(t *testing.T, srcRoot string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	ld := loader.New(loader.SrcDir(srcRoot))
	var pkgs []*loader.Package
	for _, path := range pkgPaths {
		pkg, err := ld.Load(path)
		if err != nil {
			t.Errorf("%s: loading %s: %v", a.Name, path, err)
			continue
		}
		pkgs = append(pkgs, pkg)
	}
	for _, pkg := range pkgs {
		findings, err := lint.RunPackage(pkg, a)
		if err != nil {
			t.Errorf("%s: running on %s: %v", a.Name, pkg.Path, err)
			continue
		}
		expects, err := collectWants(pkg)
		if err != nil {
			t.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
			continue
		}
		for _, f := range findings {
			if !f.Active() {
				continue // //lint:ignore in the fixture: the silenced form
			}
			if !consume(expects, f) {
				t.Errorf("%s: unexpected diagnostic at %s:%d: %s", a.Name, f.File, f.Line, f.Message)
			}
		}
		for _, e := range expects {
			if !e.met {
				t.Errorf("%s: no diagnostic at %s:%d matching %q", a.Name, e.file, e.line, e.re)
			}
		}
	}
}

// collectWants parses the want comments of every file in the package.
func collectWants(pkg *loader.Package) ([]*expectation, error) {
	var out []*expectation
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				m := wantLineRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				args := wantArgRe.FindAllStringSubmatch(m[1], -1)
				pos := pkg.Fset.Position(c.Pos())
				if len(args) == 0 {
					return nil, fmt.Errorf("%s:%d: want comment without backquoted pattern", pos.Filename, pos.Line)
				}
				for _, arg := range args {
					re, err := regexp.Compile(arg[1])
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want pattern: %v", pos.Filename, pos.Line, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out, nil
}

// consume marks the first unmet expectation matching the finding.
func consume(expects []*expectation, f lint.Finding) bool {
	for _, e := range expects {
		if !e.met && e.file == f.File && e.line == f.Line && e.re.MatchString(f.Message) {
			e.met = true
			return true
		}
	}
	return false
}
