package core

import "locwatch/internal/obs"

// Metrics optionally counts model activity. It rides on Params (see
// Params.Obs) so the deep call chains reaching profile builders and
// detectors — Lab fan-outs, ablation drivers, example programs — need
// no extra plumbing: every builder or detector constructed from a
// Params carries its counters along. The zero value disables
// counting; nil counters no-op (obs package contract).
//
// Obs is observe-only by design (DESIGN.md §8): counters are
// incremented after decisions are made and never read back, so
// enabling them cannot change any emitted result.
type Metrics struct {
	// Points counts fixes consumed by profile builders (ground-truth
	// builds, collected-profile builds and detector feeds alike). A
	// builder adds its count once per batch of fixes and at Profile,
	// Peek, Park, Release and Detector.Check (obs.Tally), so the
	// counter is exact once feeding has stopped.
	Points *obs.Counter
	// Visits counts PoI visits emitted by the extractor into profiles.
	Visits *obs.Counter
	// Breaches counts breach-positive His_bin check results.
	Breaches *obs.Counter
}
