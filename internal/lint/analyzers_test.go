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

// TestSpawnLeak covers the goroutine lifecycle contract: WaitGroup
// handshakes, done-channel protocols, transitive drains and local
// joins stay silent; unjoined spawns on Close-owning types are
// reported.
func TestSpawnLeak(t *testing.T) {
	analysistest.Run(t, fixtures, lint.SpawnLeak, "spawnleak")
}

// TestLockSafe covers the lockset race tier: goroutine/main shared
// fields with inconsistent locksets are reported at the unlocked
// access (including through named-method spawn chains and the
// branch-locked may/must split); constructors, entry-lockset-credited
// helpers, read-only sharing and disciplined types stay silent.
func TestLockSafe(t *testing.T) {
	analysistest.Run(t, fixtures, lint.LockSafe, "locksafe")
}

// TestChanOwner covers channel-ownership discipline: outside-owner
// sends and closes, send-after-close, double close (eager and
// deferred), and the one-call-removed ordering violation from the
// summary fixpoint; owner methods, constructors and consumers stay
// silent.
func TestChanOwner(t *testing.T) {
	analysistest.Run(t, fixtures, lint.ChanOwner, "chanowner")
}

// TestBlockHold covers blocking-under-lock: channel sends, sleeps and
// WaitGroup waits with a mutex held (goroutine-side and read-locked
// included), and may-blocking call chains entered under a lock;
// unlock-before-block, select-with-default and the justified
// suppression stay silent.
func TestBlockHold(t *testing.T) {
	analysistest.Run(t, fixtures, lint.BlockHold, "blockhold")
}
