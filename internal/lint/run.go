package lint

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"locwatch/internal/lint/analysis"
	"locwatch/internal/lint/loader"
)

// RunPackage applies one analyzer to one package and returns its
// findings. Findings covered by a //lint:ignore directive are returned
// with Suppressed set to "inSource" (and the directive's
// justification) rather than dropped, so SARIF output can carry them
// as suppressions.
func RunPackage(pkg *loader.Package, a *analysis.Analyzer) ([]Finding, error) {
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
	}
	ignored := ignoreDirectives(pkg)
	var out []Finding
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		f := Finding{
			Analyzer: a.Name,
			File:     pos.Filename,
			Line:     pos.Line,
			Column:   pos.Column,
			Message:  d.Message,
		}
		if hit, reason := ignored.match(pos.Filename, pos.Line, a.Name); hit {
			f.Suppressed = SuppressedInSource
			f.Justification = reason
		}
		out = append(out, f)
	}
	return out, nil
}

// Run applies every analyzer to every package and returns the
// combined findings sorted and deduplicated.
func Run(pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var all []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			fs, err := RunPackage(pkg, a)
			if err != nil {
				return nil, err
			}
			all = append(all, fs...)
		}
	}
	return finalizeFindings(all), nil
}

// finalizeFindings puts findings into canonical report order and
// collapses findings that agree on analyzer, position and message.
func finalizeFindings(all []Finding) []Finding {
	slices.SortFunc(all, compareFindings)
	return slices.CompactFunc(all, func(a, b Finding) bool { return compareFindings(a, b) == 0 })
}

// compareFindings orders findings by position, then analyzer, then
// message.
func compareFindings(a, b Finding) int {
	return cmp.Or(
		strings.Compare(a.File, b.File),
		cmp.Compare(a.Line, b.Line),
		cmp.Compare(a.Column, b.Column),
		strings.Compare(a.Analyzer, b.Analyzer),
		strings.Compare(a.Message, b.Message),
	)
}
