package lint_test

import (
	"testing"

	"locwatch/internal/lint"
	"locwatch/internal/lint/analysistest"
)

const fixtures = "testdata/src"

func TestLatLonBounds(t *testing.T) {
	analysistest.Run(t, fixtures, lint.LatLonBounds, "latlonbounds")
}

func TestDurationSeconds(t *testing.T) {
	analysistest.Run(t, fixtures, lint.DurationSeconds, "durationseconds")
}

// TestLatLonBoundsSkipsGeo pins the defining-package exemption: the
// fixture geo stub builds LatLon values freely and must stay silent.
func TestLatLonBoundsSkipsGeo(t *testing.T) {
	analysistest.Run(t, fixtures, lint.LatLonBounds, "geo")
}

func TestExhaustEnum(t *testing.T) {
	analysistest.Run(t, fixtures, lint.ExhaustEnum, "exhaustenum")
}

// TestExhaustEnumMissingMember is the growth regression: each linted
// enum gained one member in the stub packages, and every switch that
// was exhaustive before the addition must now be reported.
func TestExhaustEnumMissingMember(t *testing.T) {
	analysistest.Run(t, fixtures, lint.ExhaustEnum, "exhaustenum_sentinel")
}

func TestNilFacade(t *testing.T) {
	analysistest.Run(t, fixtures, lint.NilFacade, "nilfacade")
}

// TestNilFacadeHelpers runs the same fixture tree but asserts on the
// dependency stub too: the helpers in nilfacade/core must themselves
// stay silent (their nil returns are contracts, not bugs).
func TestNilFacadeHelpers(t *testing.T) {
	analysistest.Run(t, fixtures, lint.NilFacade, "nilfacade/core")
}

func TestErrFlow(t *testing.T) {
	analysistest.Run(t, fixtures, lint.ErrFlow, "errflow")
}

// TestPrivTaint covers the location-taint tier: direct sinks,
// cross-package flows (reported at the caller that supplies the
// coordinate, with a witness path), sanitizer and derivation
// negatives, field sensitivity, the function-value call edge, and
// //lint:ignore placement — a directive suppresses at the reporting
// site only, so a helper cannot shield its callers.
func TestPrivTaint(t *testing.T) {
	analysistest.Run(t, fixtures, lint.PrivTaint,
		"privtaint/app", "privtaint/report", "privtaint/trace")
}
