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

func TestErrFlow(t *testing.T) {
	analysistest.Run(t, fixtures, lint.ErrFlow, "errflow")
}
