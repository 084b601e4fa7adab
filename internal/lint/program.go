package lint

import (
	"fmt"
	"sort"
	"strings"

	"locwatch/internal/lint/analysis"
	"locwatch/internal/lint/callgraph"
	"locwatch/internal/lint/loader"
	"locwatch/internal/lint/summary"
)

// Program is the whole-program view shared by one lint run: the
// call graph and function summaries over the target packages plus
// every module-local dependency the loader has already type-checked.
// It is handed to each analyzer through analysis.Pass.Program, the
// shim's stand-in for x/tools' Requires/ResultOf facts machinery. The
// interprocedural analyzers (nilfacade, privtaint) consult it; the
// syntactic tier and the CFG-only analyzers ignore it.
type Program struct {
	// Targets are the packages findings are reported for. Dependency
	// packages participate in the graph and summaries but are not
	// linted themselves.
	Targets []*loader.Package

	Graph *callgraph.Graph
	Sums  *summary.Set
}

// BuildProgram assembles a Program over targets. lookup resolves an
// import path to an already-loaded package (typically
// (*loader.Loader).Package) so the graph covers the module-local
// dependency closure; a nil lookup restricts the graph to the targets
// themselves.
func BuildProgram(targets []*loader.Package, lookup func(importPath string) *loader.Package) *Program {
	byPath := make(map[string]*loader.Package, len(targets))
	queue := make([]*loader.Package, 0, len(targets))
	for _, p := range targets {
		if byPath[p.Path] == nil {
			byPath[p.Path] = p
			queue = append(queue, p)
		}
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if lookup == nil {
			break
		}
		for _, imp := range p.Types.Imports() {
			if byPath[imp.Path()] != nil {
				continue
			}
			if dep := lookup(imp.Path()); dep != nil {
				byPath[imp.Path()] = dep
				queue = append(queue, dep)
			}
		}
	}
	all := make([]*loader.Package, 0, len(byPath))
	for _, p := range byPath {
		all = append(all, p)
	}
	g := callgraph.Build(all)
	return &Program{Targets: targets, Graph: g, Sums: summary.Compute(g)}
}

// RunPackage applies one analyzer to one package under this program's
// whole-program view and returns its findings. Findings covered by a
// //lint:ignore directive are returned with Suppressed set to
// "inSource" (and the directive's justification) rather than dropped,
// so SARIF output can carry them as suppressions.
func (p *Program) RunPackage(pkg *loader.Package, a *analysis.Analyzer) ([]Finding, error) {
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		Program:   p,
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
		for _, r := range d.Related {
			rp := pkg.Fset.Position(r.Pos)
			f.Related = append(f.Related, RelatedFinding{
				File:    rp.Filename,
				Line:    rp.Line,
				Column:  rp.Column,
				Message: r.Message,
			})
		}
		out = append(out, f)
	}
	return out, nil
}

// Run applies every analyzer to every target package and returns the
// combined findings sorted and deduplicated.
func (p *Program) Run(analyzers []*analysis.Analyzer) ([]Finding, error) {
	var all []Finding
	for _, pkg := range p.Targets {
		for _, a := range analyzers {
			fs, err := p.RunPackage(pkg, a)
			if err != nil {
				return nil, err
			}
			all = append(all, fs...)
		}
	}
	return finalizeFindings(all), nil
}

// finalizeFindings puts findings into canonical report order and
// collapses duplicates. An interprocedural analyzer can derive the
// same diagnostic through several CHA witness paths (two dynamic
// callees both reaching one blocking site, say); the paths differ only
// in the Related chain, so findings agreeing on analyzer, position and
// message are one defect. The sort is a total order — ties on the
// primary key fall through to the witness chains — so the survivor of
// each duplicate group is deterministic, keeping SARIF output stable
// across runs and cache replays.
func finalizeFindings(all []Finding) []Finding {
	sortFindings(all)
	out := all[:0]
	for i, f := range all {
		if i > 0 {
			prev := out[len(out)-1]
			if f.Analyzer == prev.Analyzer && f.File == prev.File &&
				f.Line == prev.Line && f.Column == prev.Column &&
				f.Message == prev.Message {
				continue
			}
		}
		out = append(out, f)
	}
	return out
}

func sortFindings(all []Finding) {
	sort.Slice(all, func(i, j int) bool {
		return compareFindings(all[i], all[j]) < 0
	})
}

// compareFindings is a total order over findings: position, analyzer
// and message first, then the related chain, so equal-key duplicates
// still sort deterministically by witness path.
func compareFindings(a, b Finding) int {
	if c := strings.Compare(a.File, b.File); c != 0 {
		return c
	}
	if a.Line != b.Line {
		return cmpInt(a.Line, b.Line)
	}
	if a.Column != b.Column {
		return cmpInt(a.Column, b.Column)
	}
	if c := strings.Compare(a.Analyzer, b.Analyzer); c != 0 {
		return c
	}
	if c := strings.Compare(a.Message, b.Message); c != 0 {
		return c
	}
	if len(a.Related) != len(b.Related) {
		return cmpInt(len(a.Related), len(b.Related))
	}
	for i := range a.Related {
		ra, rb := a.Related[i], b.Related[i]
		if c := strings.Compare(ra.File, rb.File); c != 0 {
			return c
		}
		if ra.Line != rb.Line {
			return cmpInt(ra.Line, rb.Line)
		}
		if ra.Column != rb.Column {
			return cmpInt(ra.Column, rb.Column)
		}
		if c := strings.Compare(ra.Message, rb.Message); c != 0 {
			return c
		}
	}
	return 0
}

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// program extracts the *Program from a pass, or nil when the driver
// supplied none (the analyzer should then degrade to a no-op or its
// intraprocedural behavior).
func program(pass *analysis.Pass) *Program {
	p, _ := pass.Program.(*Program)
	return p
}
