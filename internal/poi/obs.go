package poi

import "locwatch/internal/obs"

// ExtractorObs optionally counts extractor activity. It rides on
// Params (see Params.Obs) so both the buffer extractor and the
// stay-point baseline count without new constructor arguments. The
// zero value disables counting; nil counters no-op. Observe-only:
// counters never feed back into extraction (DESIGN.md §8).
type ExtractorObs struct {
	// Points counts fixes fed into the extractor. An extractor adds
	// its count once per batch of fixes and at Flush, Park, Release and
	// Extractor.FlushCounts (obs.Tally), so the counter is exact once
	// feeding has stopped.
	Points *obs.Counter
	// Stays counts stay points emitted.
	Stays *obs.Counter
}
