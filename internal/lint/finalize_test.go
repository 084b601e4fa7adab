package lint

import (
	"reflect"
	"testing"
)

// TestFinalizeFindings pins the dedupe contract: findings agreeing on
// analyzer, position and message collapse to one, the survivor is the
// one with the smallest witness chain under the total order, and
// findings differing in any key component all survive.
func TestFinalizeFindings(t *testing.T) {
	short := []RelatedFinding{{File: "a.go", Line: 3, Column: 1, Message: "via call to F"}}
	long := []RelatedFinding{
		{File: "a.go", Line: 3, Column: 1, Message: "via call to F"},
		{File: "b.go", Line: 9, Column: 2, Message: "via call to G"},
	}
	in := []Finding{
		{Analyzer: "nilfacade", File: "a.go", Line: 10, Column: 2, Message: "m", Related: long},
		{Analyzer: "nilfacade", File: "a.go", Line: 10, Column: 2, Message: "m", Related: short},
		{Analyzer: "nilfacade", File: "a.go", Line: 10, Column: 2, Message: "other"},
		{Analyzer: "privtaint", File: "a.go", Line: 10, Column: 2, Message: "m"},
		{Analyzer: "nilfacade", File: "a.go", Line: 4, Column: 2, Message: "m"},
	}
	got := finalizeFindings(in)
	want := []Finding{
		{Analyzer: "nilfacade", File: "a.go", Line: 4, Column: 2, Message: "m"},
		{Analyzer: "nilfacade", File: "a.go", Line: 10, Column: 2, Message: "m", Related: short},
		{Analyzer: "nilfacade", File: "a.go", Line: 10, Column: 2, Message: "other"},
		{Analyzer: "privtaint", File: "a.go", Line: 10, Column: 2, Message: "m"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("finalizeFindings:\n got %+v\nwant %+v", got, want)
	}
}

// TestCompareFindingsTotal pins that the order is total: ties on the
// primary key are broken by the related chain, never left to input
// order.
func TestCompareFindingsTotal(t *testing.T) {
	a := Finding{Analyzer: "x", File: "f.go", Line: 1, Column: 1, Message: "m",
		Related: []RelatedFinding{{File: "f.go", Line: 2, Column: 1, Message: "p"}}}
	b := a
	b.Related = []RelatedFinding{{File: "f.go", Line: 2, Column: 1, Message: "q"}}
	if compareFindings(a, b) >= 0 || compareFindings(b, a) <= 0 {
		t.Fatalf("related-chain tiebreak not antisymmetric")
	}
	if compareFindings(a, a) != 0 {
		t.Fatalf("compareFindings(a, a) != 0")
	}
}
