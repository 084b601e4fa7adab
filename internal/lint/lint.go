// Package lint is locwatch's domain lint suite: custom analyzers that
// machine-check the invariants the paper's risk numbers depend on
// (coordinate ranges, typed durations, handled errors and enum members,
// checked constructors, scrubbed location output).
// Each analyzer keeps its place only by catching a seeded regression
// that neither go vet nor the tests catch (TestSeededDefects). The
// analyzers are built on the x/tools-shaped mini framework in
// internal/lint/analysis and driven by cmd/locwatchlint and the
// `make check` gate.
//
// A finding can be suppressed at a call site that is known-good with a
// directive comment on (or immediately above) the offending line:
//
//	//lint:ignore latlonbounds corners derive from validated fixes
//
// The directive names one analyzer, a comma-separated list, or "all".
package lint

import (
	"fmt"
	"go/ast"
	"strings"

	"locwatch/internal/lint/analysis"
	"locwatch/internal/lint/loader"
)

// All returns the full analyzer suite in stable order: the syntactic
// tier (latlonbounds, durationseconds), the flow-sensitive tier
// (errflow, exhaustenum, nilfacade) built on internal/lint/cfg, and
// the interprocedural tier (privtaint, plus nilfacade's summary-driven
// upgrade) built on internal/lint/callgraph and internal/lint/summary.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DurationSeconds,
		ErrFlow,
		ExhaustEnum,
		LatLonBounds,
		NilFacade,
		PrivTaint,
	}
}

// Finding is one diagnostic, positioned and attributed.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
	// Related carries secondary positions explaining the finding —
	// privtaint uses it for the hops of a source→sink witness path.
	Related []RelatedFinding `json:"related,omitempty"`
	// Suppressed is "" for an active finding and "inSource" for one
	// silenced by a //lint:ignore directive. Suppressed findings stay in
	// reports (SARIF carries them as suppressions) but do not fail the
	// run.
	Suppressed string `json:"suppressed,omitempty"`
	// Justification is the free-text tail of the ignore directive.
	Justification string `json:"justification,omitempty"`
}

// SuppressedInSource marks a finding silenced by a //lint:ignore
// directive, in SARIF's suppression vocabulary.
const SuppressedInSource = "inSource"

// Active reports whether the finding should fail a lint run.
func (f Finding) Active() bool { return f.Suppressed == "" }

// RelatedFinding is one secondary position attached to a Finding.
type RelatedFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Message string `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.File, f.Line, f.Column, f.Message, f.Analyzer)
}

// ignoreSet records, per file and line, the //lint:ignore directives
// in force. A directive covers its own line and the line below it, so
// it works both as a trailing and a standalone comment.
type ignoreSet map[string]map[int][]ignoreEntry

// ignoreEntry is one parsed directive: the analyzer names it silences
// and the justification text after them.
type ignoreEntry struct {
	names  []string
	reason string
}

// match returns whether a directive covers (file, line, analyzer) and
// the directive's justification text.
func (s ignoreSet) match(file string, line int, analyzer string) (bool, string) {
	for _, e := range s[file][line] {
		for _, name := range e.names {
			if name == "all" || name == analyzer {
				return true, e.reason
			}
		}
	}
	return false, ""
}

func ignoreDirectives(pkg *loader.Package) ignoreSet {
	set := make(ignoreSet)
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) < 2 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if set[pos.Filename] == nil {
					set[pos.Filename] = make(map[int][]ignoreEntry)
				}
				entry := ignoreEntry{
					names:  strings.Split(fields[1], ","),
					reason: strings.Join(fields[2:], " "),
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					set[pos.Filename][line] = append(set[pos.Filename][line], entry)
				}
			}
		}
	}
	return set
}

// enclosingFunc returns the innermost function declaration or literal
// on the stack, or nil.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

func funcBody(fn ast.Node) *ast.BlockStmt {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}
