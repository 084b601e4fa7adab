package lint_test

import (
	"testing"

	"locwatch/internal/lint"
	"locwatch/internal/lint/loader"
)

// fixturePacks are the package sets the analyzer tests load, one per
// analysistest.Run call in analyzers_test.go.
var fixturePacks = [][]string{
	{"latlonbounds"}, {"geo"},
	{"durationseconds"}, {"exhaustenum"}, {"exhaustenum_sentinel"},
	{"nilfacade"}, {"errflow"},
}

// TestSubsumption keeps the roster free of analyzers that only restate
// others: it runs every fixture pack through the full roster and fails
// when an analyzer has no positive — an active finding — on a line no
// other analyzer reports.
func TestSubsumption(t *testing.T) {
	type line struct {
		file string
		no   int
	}
	reporters := make(map[line]map[string]bool)
	for _, pack := range fixturePacks {
		ld := loader.New(loader.SrcDir(fixtures))
		var pkgs []*loader.Package
		for _, path := range pack {
			pkg, err := ld.Load(path)
			if err != nil {
				t.Fatalf("loading %s: %v", path, err)
			}
			pkgs = append(pkgs, pkg)
		}
		findings, err := lint.Run(pkgs, lint.All())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range findings {
			if !f.Active() {
				continue
			}
			l := line{f.File, f.Line}
			if reporters[l] == nil {
				reporters[l] = make(map[string]bool)
			}
			reporters[l][f.Analyzer] = true
		}
	}
	unique := make(map[string]int)
	for _, names := range reporters {
		if len(names) == 1 {
			for name := range names {
				unique[name]++
			}
		}
	}
	for _, a := range lint.All() {
		t.Logf("%-16s %2d unique positives", a.Name, unique[a.Name])
		if unique[a.Name] == 0 {
			t.Errorf("%s has no positive that another analyzer does not also report", a.Name)
		}
	}
}
