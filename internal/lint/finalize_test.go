package lint

import (
	"reflect"
	"testing"
)

// TestFinalizeFindings pins the dedupe contract: findings agreeing on
// analyzer, position and message collapse to one, and findings
// differing in any of them all survive, in report order.
func TestFinalizeFindings(t *testing.T) {
	in := []Finding{
		{Analyzer: "nilfacade", File: "a.go", Line: 10, Column: 2, Message: "m"},
		{Analyzer: "nilfacade", File: "a.go", Line: 10, Column: 2, Message: "m"},
		{Analyzer: "nilfacade", File: "a.go", Line: 10, Column: 2, Message: "other"},
		{Analyzer: "errflow", File: "a.go", Line: 10, Column: 2, Message: "m"},
		{Analyzer: "nilfacade", File: "a.go", Line: 4, Column: 2, Message: "m"},
	}
	got := finalizeFindings(in)
	want := []Finding{
		{Analyzer: "nilfacade", File: "a.go", Line: 4, Column: 2, Message: "m"},
		{Analyzer: "errflow", File: "a.go", Line: 10, Column: 2, Message: "m"},
		{Analyzer: "nilfacade", File: "a.go", Line: 10, Column: 2, Message: "m"},
		{Analyzer: "nilfacade", File: "a.go", Line: 10, Column: 2, Message: "other"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("finalizeFindings:\n got %+v\nwant %+v", got, want)
	}
}

// TestCompareFindingsTotal pins that the order decides every pair of
// findings that differ in file, position, analyzer or message, in
// both directions.
func TestCompareFindingsTotal(t *testing.T) {
	base := Finding{Analyzer: "x", File: "f.go", Line: 1, Column: 1, Message: "m"}
	if compareFindings(base, base) != 0 {
		t.Fatalf("compareFindings(a, a) != 0")
	}
	for _, edit := range []func(*Finding){
		func(f *Finding) { f.File = "g.go" },
		func(f *Finding) { f.Line = 2 },
		func(f *Finding) { f.Column = 2 },
		func(f *Finding) { f.Analyzer = "y" },
		func(f *Finding) { f.Message = "n" },
	} {
		b := base
		edit(&b)
		if compareFindings(base, b) >= 0 || compareFindings(b, base) <= 0 {
			t.Errorf("order not antisymmetric between %+v and %+v", base, b)
		}
	}
}
