package lint

import (
	"bytes"
	"strings"
	"testing"
)

func TestBaselineRoundTrip(t *testing.T) {
	findings := []Finding{
		{Analyzer: "locksafe", File: "/mod/internal/a/a.go", Line: 10, Column: 2,
			Message: "field A.x is written without A.mu held"},
		{Analyzer: "detreach", File: "/mod/internal/b/b.go", Line: 5, Column: 1,
			Message: "time.Now in simulation path"},
		{Analyzer: "latlonbounds", File: "/mod/internal/a/a.go", Line: 3, Column: 9,
			Message: "latitude out of range", Suppressed: SuppressedInSource},
	}

	var buf bytes.Buffer
	if err := WriteBaseline(&buf, "/mod", findings); err != nil {
		t.Fatal(err)
	}
	// Only active findings are recorded, with module-relative paths.
	if got := buf.String(); !strings.Contains(got, "internal/a/a.go") ||
		strings.Contains(got, "/mod/") || strings.Contains(got, "latlonbounds") {
		t.Errorf("baseline file contents off:\n%s", got)
	}

	base, err := ReadBaseline(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// Same findings on re-run, plus one new: the old ones demote to
	// baseline-suppressed, the new one stays active, and the in-source
	// suppression is untouched.
	rerun := append([]Finding(nil), findings...)
	rerun = append(rerun, Finding{Analyzer: "locksafe", File: "/mod/internal/c/c.go",
		Line: 7, Column: 4, Message: "field C.y is written without synchronization"})
	base.Apply("/mod", rerun)

	if rerun[0].Suppressed != SuppressedBaseline || rerun[1].Suppressed != SuppressedBaseline {
		t.Errorf("known findings not demoted: %q, %q", rerun[0].Suppressed, rerun[1].Suppressed)
	}
	if rerun[2].Suppressed != SuppressedInSource {
		t.Errorf("in-source suppression clobbered: %q", rerun[2].Suppressed)
	}
	if !rerun[3].Active() {
		t.Errorf("new finding wrongly suppressed: %q", rerun[3].Suppressed)
	}
}

// TestBaselineFingerprintSensitivity pins what identity is made of: a
// checkout moving (different root, same relative path) keeps the
// fingerprint; the message or position changing breaks it.
func TestBaselineFingerprintSensitivity(t *testing.T) {
	f := Finding{Analyzer: "locksafe", File: "/mod/internal/a/a.go", Line: 10, Column: 2,
		Message: "field A.x is written without A.mu held"}

	same := f
	same.File = "/elsewhere/checkout/internal/a/a.go"
	if Fingerprint("/mod", f) != Fingerprint("/elsewhere/checkout", same) {
		t.Error("fingerprint depends on the checkout location")
	}

	moved := f
	moved.Line = 11
	reworded := f
	reworded.Message = "field A.x is written without A.mu held (1 of 3 accesses hold it)"
	fp := Fingerprint("/mod", f)
	if Fingerprint("/mod", moved) == fp {
		t.Error("fingerprint ignores the line")
	}
	if Fingerprint("/mod", reworded) == fp {
		t.Error("fingerprint ignores the message")
	}
}

// TestBaselineStaleAndPrune pins the ledger hygiene loop: entries no
// finding matches are reported stale, WritePruned drops exactly those,
// and the pruned file round-trips with nothing stale left.
func TestBaselineStaleAndPrune(t *testing.T) {
	still := Finding{Analyzer: "locksafe", File: "/mod/a.go", Line: 10, Column: 2,
		Message: "field A.x is written without A.mu held"}
	fixed := Finding{Analyzer: "detreach", File: "/mod/b.go", Line: 5, Column: 1,
		Message: "time.Now in simulation path"}

	var buf bytes.Buffer
	if err := WriteBaseline(&buf, "/mod", []Finding{still, fixed}); err != nil {
		t.Fatal(err)
	}
	base, err := ReadBaseline(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Before any Apply everything is stale; the fixed finding never
	// comes back, so after Apply its entry remains so.
	if got := len(base.Stale()); got != 2 {
		t.Fatalf("pre-Apply stale count = %d, want 2", got)
	}
	rerun := []Finding{still}
	base.Apply("/mod", rerun)
	stale := base.Stale()
	if len(stale) != 1 || stale[0].Analyzer != "detreach" {
		t.Fatalf("stale = %+v, want the fixed detreach entry", stale)
	}

	var pruned bytes.Buffer
	if err := base.WritePruned(&pruned); err != nil {
		t.Fatal(err)
	}
	if s := pruned.String(); strings.Contains(s, "detreach") || !strings.Contains(s, "locksafe") {
		t.Fatalf("pruned baseline off:\n%s", s)
	}
	reread, err := ReadBaseline(bytes.NewReader(pruned.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	reread.Apply("/mod", []Finding{still})
	if len(reread.Stale()) != 0 {
		t.Fatalf("pruned baseline still has stale entries: %+v", reread.Stale())
	}
}

func TestBaselineVersionCheck(t *testing.T) {
	if _, err := ReadBaseline(strings.NewReader(`{"version": 99, "findings": []}`)); err == nil {
		t.Error("future version accepted silently")
	}
	if _, err := ReadBaseline(strings.NewReader(`{"version": 1, "bogus": true}`)); err == nil {
		t.Error("unknown field accepted silently")
	}
}
