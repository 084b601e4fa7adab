package core

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"locwatch/internal/geo"
	"locwatch/internal/geoidx"
	"locwatch/internal/obs"
	"locwatch/internal/poi"
	"locwatch/internal/stats"
	"locwatch/internal/trace"
)

// ErrNoProfile is returned when an operation needs a non-degenerate
// profile (at least two histogram categories) and none is available.
var ErrNoProfile = errors.New("core: profile has too little data")

// visitRec is one extracted stay retained for movement-pattern
// re-keying against an arbitrary reference profile.
type visitRec struct {
	pos   geo.LatLon
	enter time.Time
	exit  time.Time
}

// Profile is what an observer can distill from a user's location
// stream. It holds the two representations the paper compares:
//
//   - pattern 1 ⟨region, visited times⟩: a histogram of raw collected
//     fixes over grid regions, the representation of prior work (Zang &
//     Bolot count cellular records per location; no PoI extraction is
//     involved). Its category mass equals the number of points, so the
//     chi-square test is powerful early and rejects until the observed
//     dwell-time mix converges to the profile's.
//
//   - pattern 2 ⟨movement pattern PoI_i→PoI_j, happen times⟩: a
//     histogram of transitions between canonical places extracted by
//     the Spatio-Temporal algorithm — the paper's proposal. Its mass
//     grows one transition per place-to-place movement, so it is sparse
//     but stationary for users with habitual routines.
//
// Built from the full native-rate trace it is the "ground truth" user
// profile; built from an app's sampled collection it is the observed
// side of the His_bin comparison.
type Profile struct {
	params Params
	anchor geo.LatLon

	places  *poi.Canonicalizer
	regions *geoidx.Index // region quantizer (pattern 1 key space)

	regionHist *stats.Histogram // region → number of fixes
	moveHist   *stats.Histogram // "p<i>→p<j>" (own place IDs) → count
	visitSeq   []visitRec       // stays in time order, for re-keying

	lastVisit    poi.Visit
	hasLastVisit bool

	lastRegion string
	regionRun  int // consecutive fixes in lastRegion
	sojourns   int // debounced region entries: the effective sample size of regionHist

	// Run-length region accounting: Feed compares integer cell
	// coordinates per fix (allocation-free) and defers the histogram
	// update — the string key is materialized and the run's count added
	// only when the cell changes or the histogram is read. Deferred
	// counts are integers, so Add(region, n) is bit-identical to n
	// consecutive Inc(region) calls.
	cellX, cellY int
	haveCell     bool
	pendingRun   int // fixes in (cellX, cellY) not yet in regionHist

	points int
	visits int
}

// ProfileBuilder incrementally builds a Profile from a point stream.
type ProfileBuilder struct {
	profile   *Profile
	extractor *poi.Extractor
	points    obs.Tally // Params.Obs.Points
}

// NewProfileBuilder returns a builder anchored at the given point (any
// fixed landmark of the data's city; profiles compared to each other
// must share the anchor so region identifiers align).
func NewProfileBuilder(anchor geo.LatLon, params Params) (*ProfileBuilder, error) {
	p, err := params.withDefaults()
	if err != nil {
		return nil, err
	}
	places, err := poi.NewCanonicalizer(anchor, p.MergeRadius)
	if err != nil {
		return nil, err
	}
	regions, err := geoidx.New(anchor, p.RegionCell)
	if err != nil {
		return nil, err
	}
	prof := &Profile{
		params:     p,
		anchor:     anchor,
		places:     places,
		regions:    regions,
		regionHist: stats.NewHistogram(),
		moveHist:   stats.NewHistogram(),
	}
	b := &ProfileBuilder{profile: prof, points: obs.NewTally(p.Obs.Points)}
	b.extractor, err = poi.NewExtractor(p.Extractor, b.observe)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Feed processes the next fix of the stream: it contributes to the
// pattern-1 region histogram immediately and drives PoI extraction for
// pattern 2.
func (b *ProfileBuilder) Feed(pt trace.Point) error {
	if err := b.extractor.Feed(pt); err != nil {
		return err
	}
	p := b.profile
	cx, cy := p.regions.Cell(pt.Pos)
	// A sojourn — one independent observation of the user's dwell mix —
	// is counted only after sojournDebounce consecutive fixes in the
	// region: cell-boundary flicker and brief transit crossings are not
	// independent samples, and counting them would inflate the
	// chi-square test's effective sample size.
	if !p.haveCell || cx != p.cellX || cy != p.cellY {
		p.flushRegionRun()
		p.cellX, p.cellY, p.haveCell = cx, cy, true
		p.lastRegion = p.regions.RegionIDOfCell(cx, cy)
		p.regionRun = 0
	}
	p.pendingRun++
	p.regionRun++
	if p.regionRun == sojournDebounce {
		p.sojourns++
	}
	p.points++
	b.points.Inc()
	return nil
}

// flushCounts adds the fixes fed since the last flush to the point
// counters of the builder and its extractor, which Feed updates only
// once per batch of fixes. Every method at which feeding can stop calls
// it: Profile, Peek, Park, Release and Detector.Check.
func (b *ProfileBuilder) flushCounts() {
	b.extractor.FlushCounts()
	b.points.Flush()
}

// sojournDebounce is the run length at which a region entry counts as
// a sojourn.
const sojournDebounce = 3

// flushRegionRun folds the pending run-length count into the region
// histogram. Every read of regionHist goes through a flushing accessor,
// so deferral is invisible; the integer weight keeps the fold
// bit-identical to per-fix increments. Finalized profiles (Profile()
// was called) have no pending run, which keeps later concurrent reads
// of shared cached profiles write-free.
func (p *Profile) flushRegionRun() {
	if p.pendingRun > 0 {
		p.regionHist.Add(p.lastRegion, float64(p.pendingRun))
		p.pendingRun = 0
	}
}

// observe receives each extracted stay and updates the movement state.
func (b *ProfileBuilder) observe(s poi.StayPoint) {
	p := b.profile
	v := p.places.Observe(s)
	p.visits++
	p.params.Obs.Visits.Inc()
	p.visitSeq = append(p.visitSeq, visitRec{pos: s.Pos, enter: s.Enter, exit: s.Exit})

	if p.hasLastVisit && v.PlaceID != p.lastVisit.PlaceID {
		gap := v.Enter.Sub(p.lastVisit.Exit)
		if p.params.TransitionMaxGap <= 0 || gap <= p.params.TransitionMaxGap {
			p.moveHist.Inc(moveKey(placeKey(p.lastVisit.PlaceID), placeKey(v.PlaceID)))
		}
	}
	p.lastVisit = v
	p.hasLastVisit = true
}

func placeKey(id int) string { return "p" + strconv.Itoa(id) }

func moveKey(from, to string) string { return from + "→" + to }

// Profile finalizes and returns the profile built so far. The builder
// remains usable; the returned profile is a live view that continues to
// update if more points are fed — snapshot the histograms if isolation
// is needed.
func (b *ProfileBuilder) Profile() *Profile {
	b.extractor.Flush()
	b.flushCounts()
	b.profile.flushRegionRun()
	return b.profile
}

// Peek returns the live profile without finalizing the stream: the
// extractor is NOT flushed, so a stay the user is currently inside
// stays open and is not yet a visit. Unlike Profile, Peek never
// perturbs future extraction — feeding more points after Peek yields
// exactly what an un-peeked builder would have yielded, which is what
// lets a streaming service serve mid-stream risk snapshots while
// remaining byte-equivalent to a batch run at end of stream. (The
// pattern-1 run-length fold Peek triggers is additive and harmless;
// only the extractor flush is destructive.)
func (b *ProfileBuilder) Peek() *Profile {
	b.profile.flushRegionRun()
	b.flushCounts()
	return b.profile
}

// Park releases the builder's pooled extraction scratch while keeping
// the builder fully usable: buffered window points survive, so
// parking an idle user's builder (stream eviction) bounds its memory
// without changing any future extraction result. See poi.Extractor.Park.
func (b *ProfileBuilder) Park() {
	b.extractor.Park()
	b.flushCounts()
}

// Footprint estimates the bytes retained by the builder's extraction
// window buffers — the only part of builder state that grows with
// burst size rather than with the number of distinct places/regions.
func (b *ProfileBuilder) Footprint() int {
	return b.extractor.Footprint()
}

// Release returns the builder's pooled extraction scratch (the PoI
// window buffers) for reuse. Call only when no more points will be fed;
// the already-built Profile stays fully valid. BuildProfile releases
// automatically — its builder never escapes.
func (b *ProfileBuilder) Release() {
	b.extractor.Release()
	b.flushCounts()
}

// BuildProfile drains src into a new profile.
func BuildProfile(src trace.Source, anchor geo.LatLon, params Params) (*Profile, error) {
	b, err := NewProfileBuilder(anchor, params)
	if err != nil {
		return nil, err
	}
	for {
		pt, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("core: build profile: %w", err)
		}
		if err := b.Feed(pt); err != nil {
			return nil, err
		}
	}
	prof := b.Profile()
	b.Release()
	return prof, nil
}

// Anchor returns the projection anchor region identifiers are relative
// to.
func (p *Profile) Anchor() geo.LatLon { return p.anchor }

// Params returns the parameters the profile was built with.
func (p *Profile) Params() Params { return p.params }

// NumPoints returns the number of fixes consumed.
func (p *Profile) NumPoints() int { return p.points }

// NumVisits returns the number of extracted PoI visits.
func (p *Profile) NumVisits() int { return p.visits }

// Places returns the canonical places with visit counts.
func (p *Profile) Places() []poi.Place { return p.places.Places() }

// NumPlaces returns the number of canonical places — the paper's
// PoI_total for this data.
func (p *Profile) NumPlaces() int { return p.places.NumPlaces() }

// SensitivePlaces returns places visited at most maxVisits times — the
// paper's PoI_sensitive ground truth (maxVisits = 3 in Figure 3(b)).
func (p *Profile) SensitivePlaces(maxVisits int) []poi.Place {
	return p.places.SensitivePlaces(maxVisits)
}

// Histogram returns the profile's own histogram for the given pattern:
// region point counts for pattern 1, own-place-keyed transitions for
// pattern 2. The returned histogram is live; clone before mutating.
func (p *Profile) Histogram(pattern Pattern) *stats.Histogram {
	if pattern == PatternMovement {
		return p.moveHist
	}
	p.flushRegionRun()
	return p.regionHist
}

// Usable reports whether the profile has enough signal to serve as a
// chi-square reference under the given pattern.
func (p *Profile) Usable(pattern Pattern) bool {
	h := p.Histogram(pattern)
	return usable(h.Len(), h.Total())
}

// usable is Usable's rule on a histogram's key count and mass.
func usable(keys int, total float64) bool { return keys >= 2 && total >= 2 }

// RegionOf returns the pattern-1 region identifier of a position under
// this profile's anchor and cell size.
func (p *Profile) RegionOf(pos geo.LatLon) string { return p.regions.RegionID(pos) }

// Coverage reports how much of this (ground-truth) profile's places an
// observed profile discovered: an observed place within MergeRadius of
// a ground-truth place counts as discovering it. It returns the number
// of ground-truth places and how many were discovered — the ratio is
// the paper's PoI_total exposure for a given collection behaviour.
func (p *Profile) Coverage(observed *Profile) (total, discovered int) {
	places := p.places.Places()
	for _, gt := range places {
		if observed.places.Locate(gt.Pos) >= 0 {
			discovered++
		}
	}
	return len(places), discovered
}

// SensitiveCoverage is Coverage restricted to ground-truth places
// visited at most maxVisits times (the PoI_sensitive exposure).
func (p *Profile) SensitiveCoverage(observed *Profile, maxVisits int) (total, discovered int) {
	for _, gt := range p.places.SensitivePlaces(maxVisits) {
		total++
		if observed.places.Locate(gt.Pos) >= 0 {
			discovered++
		}
	}
	return total, discovered
}

// movementObservedAgainst re-keys the observed profile's visit sequence
// into THIS profile's place registry and returns the resulting
// transition histogram. Stays that do not locate to any of this
// profile's places get a synthetic region-based key, which cannot occur
// in this profile's histogram and therefore counts as mismatch under
// smoothing.
func (p *Profile) movementObservedAgainst(observed *Profile) *stats.Histogram {
	h := stats.NewHistogram()
	prevKey := ""
	var prevExit time.Time
	havePrev := false
	for _, v := range observed.visitSeq {
		var key string
		if id := p.places.Locate(v.pos); id >= 0 {
			key = placeKey(id)
		} else {
			key = "u:" + p.regions.RegionID(v.pos)
		}
		if havePrev && key != prevKey {
			gap := v.enter.Sub(prevExit)
			if p.params.TransitionMaxGap <= 0 || gap <= p.params.TransitionMaxGap {
				h.Inc(moveKey(prevKey, key))
			}
		}
		prevKey = key
		prevExit = v.exit
		havePrev = true
	}
	return h
}

// Two ways a usable reference still yields no test. Both are built
// once: Identify meets them for most candidates while an observation
// is thin, and callers only test them with errors.Is.
var (
	errThinEvidence = fmt.Errorf("%w: observed mass below the minimum evidence", ErrNoProfile)
	errDegenerate   = fmt.Errorf("%w: %w", ErrNoProfile, stats.ErrDegenerate)
)

// Compare runs the His_bin chi-square test of an observed profile
// against this reference profile under the given pattern. The observed
// data plays "observed" and this profile plays "expected"; for
// pattern 2 the observed stays are first re-keyed into this profile's
// place registry. ErrNoProfile is returned when the reference is
// unusable under the pattern or the observation has not yet reached
// the minimum evidence for a meaningful test.
func (p *Profile) Compare(observed *Profile, pattern Pattern) (stats.GoodnessOfFit, error) {
	var region stats.Frozen
	if pattern != PatternMovement {
		region = observed.regionObservation()
	}
	return p.compare(p.Histogram(pattern).Freeze(), observed, region, pattern)
}

// regionObservation returns the pattern-1 histogram as the observed
// side of a test: frozen, and scaled for the design effect.
// Consecutive fixes are heavily autocorrelated (a user parked at home
// for eight hours is one observation of "home", not ten thousand), so
// the histogram keeps its point-level *proportions* but is scaled down
// to the effective sample size — the number of region sojourns.
// Without this the test has unbounded power and rejects every profile,
// including the user's own, on any cross-window drift.
func (p *Profile) regionObservation() stats.Frozen {
	obs := p.Histogram(PatternRegion).Freeze()
	if p.points > 0 && p.sojourns > 0 && p.sojourns < p.points {
		obs = obs.Scaled(float64(p.sojourns) / float64(p.points))
	}
	return obs
}

// compare is Compare with this profile's histogram under pattern
// already frozen as ref, and, under any pattern but pattern 2, the
// observation already built as region by regionObservation.
func (p *Profile) compare(ref stats.Frozen, observed *Profile, region stats.Frozen, pattern Pattern) (stats.GoodnessOfFit, error) {
	if !usable(ref.Len(), ref.Total()) {
		return stats.GoodnessOfFit{}, ErrNoProfile
	}
	obs, need := region, p.params.MinPointEvidence
	if pattern == PatternMovement {
		obs, need = p.movementObservedAgainst(observed).Freeze(), p.params.MinTransitionEvidence
	}
	if obs.Total() < need {
		return stats.GoodnessOfFit{}, errThinEvidence
	}
	g, err := stats.CompareHistograms(obs, ref, p.params.Smoothing, p.params.PoolShare, p.params.Tail)
	if err != nil {
		if errors.Is(err, stats.ErrDegenerate) {
			return stats.GoodnessOfFit{}, errDegenerate
		}
		return stats.GoodnessOfFit{}, err
	}
	return g, nil
}

// HisBin evaluates the paper's His_bin metric: 1 when the observed data
// fits this profile (privacy breach — the collection reveals the
// user's activity profile), 0 otherwise. Insufficient evidence counts
// as 0 rather than an error.
func (p *Profile) HisBin(observed *Profile, pattern Pattern) (int, error) {
	g, err := p.Compare(observed, pattern)
	if errors.Is(err, ErrNoProfile) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if g.Match(p.params.Alpha) {
		return 1, nil
	}
	return 0, nil
}
