// Package poi extracts Points of Interest from location traces.
//
// The primary extractor implements the Spatio-Temporal buffer algorithm
// the paper adopts from Bamis & Savvides: three buffers buf_Entry,
// buf_PoI and buf_Exit whose running centroids decide when a user has
// entered and left a stay region. A classic stay-point detector (Li et
// al.) is provided as an ablation baseline, and a Canonicalizer merges
// the extracted stay points of a user into identified places with visit
// counts — the substrate for the paper's PoI_total / PoI_sensitive
// metrics and for movement-pattern histograms.
package poi

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"locwatch/internal/geo"
	"locwatch/internal/obs"
	"locwatch/internal/trace"
)

// StayPoint is one extracted PoI visit: the user stayed within a small
// region from Enter to Exit.
type StayPoint struct {
	Pos     geo.LatLon // centroid of the stay region
	Enter   time.Time
	Exit    time.Time
	NPoints int // number of fixes that contributed
}

// Duration returns the dwell time.
func (s StayPoint) Duration() time.Duration { return s.Exit.Sub(s.Enter) }

// String implements fmt.Stringer.
func (s StayPoint) String() string {
	return fmt.Sprintf("stay %s for %s from %s", s.Pos, s.Duration().Round(time.Second), s.Enter.Format(time.RFC3339))
}

// Params configures the buffer extractor. The paper's Table III sweeps
// Radius ∈ {50, 100} m and MinVisit ∈ {10, 20, 30} min; its chosen
// operating point is set 1 (50 m, 10 min), which DefaultParams returns.
type Params struct {
	// Radius is the centroid-distance threshold in meters that decides
	// both PoI entry (buf_Entry vs buf_PoI centroids closer than this)
	// and exit (buf_PoI vs buf_Exit centroids farther than this).
	Radius float64
	// MinVisit is the minimum dwell time for a stay to count as a PoI.
	// It only selects which closed stays are emitted; extraction state
	// never depends on it.
	MinVisit time.Duration
	// Window is the time span of the entry and exit buffers. Movement
	// slower than roughly Radius/(Window/2) is treated as stationary.
	// Defaults to 3 minutes when zero.
	Window time.Duration
	// MaxGap breaks the trace when consecutive fixes are farther apart
	// in time; the current stay is flushed. Defaults to 12 hours when
	// zero, comfortably above the largest access interval the market
	// study observed (7,200 s).
	MaxGap time.Duration
	// Obs optionally counts extractor activity; the zero value
	// disables it. Counters are observe-only and never change
	// extraction results.
	Obs ExtractorObs
}

// DefaultParams returns the paper's chosen parameter set 1.
func DefaultParams() Params {
	return Params{Radius: 50, MinVisit: 10 * time.Minute}
}

func (p Params) withDefaults() (Params, error) {
	if p.Window == 0 {
		p.Window = 3 * time.Minute
	}
	if p.MaxGap == 0 {
		p.MaxGap = 12 * time.Hour
	}
	// +Inf is valid: a trace is one stay until a gap breaks it. NaN,
	// which every radius test reads as false, is rejected.
	if !(p.Radius > 0) {
		return p, fmt.Errorf("poi: radius must be positive, got %v", p.Radius)
	}
	if p.MinVisit <= 0 {
		return p, fmt.Errorf("poi: min visit must be positive, got %v", p.MinVisit)
	}
	if p.Window < 0 || p.MaxGap < 0 {
		return p, errors.New("poi: negative window or gap")
	}
	return p, nil
}

// window is a time-bounded sliding buffer of points with a running
// centroid. It always retains at least two points regardless of age so
// the extractor keeps working on sparsely sampled traces, where an
// entire access interval can exceed the nominal window span.
//
// The buffer is stored as structure-of-arrays — timestamps as int64
// UnixNano, coordinates as parallel float slices — so the per-fix hot
// path (add + evict + halves) runs integer compares and straight float
// loops over the geo SoA kernels instead of time.Time method calls and
// struct copies. Eviction advances a head index; the backing arrays are
// compacted when the dead prefix dominates, so steady-state operation
// never reallocates.
type window struct {
	ts       []int64 // UnixNano
	lat      []float64
	lon      []float64
	head     int // live region is [head:len]
	centroid geo.RunningCentroid
	span     int64          // nanos
	scratch  *windowScratch // pool ticket while borrowing; nil otherwise
}

func (w *window) add(tn int64, pos geo.LatLon) {
	if w.head > 32 && w.head > len(w.ts)/2 {
		w.compact()
	}
	w.ts = append(w.ts, tn)
	w.lat = append(w.lat, pos.Lat)
	w.lon = append(w.lon, pos.Lon)
	w.centroid.Add(pos)
	w.evict(tn)
}

// compact copies the live region to the front of the backing arrays so
// append reuses their capacity instead of growing forever.
func (w *window) compact() {
	n := copy(w.ts, w.ts[w.head:])
	copy(w.lat, w.lat[w.head:])
	copy(w.lon, w.lon[w.head:])
	w.ts = w.ts[:n]
	w.lat = w.lat[:n]
	w.lon = w.lon[:n]
	w.head = 0
}

func (w *window) evict(now int64) {
	for len(w.ts)-w.head > 2 && now-w.ts[w.head] > w.span {
		w.centroid.Remove(geo.AtSoA(w.lat, w.lon, w.head))
		w.head++
	}
}

func (w *window) reset() {
	w.ts = w.ts[:0]
	w.lat = w.lat[:0]
	w.lon = w.lon[:0]
	w.head = 0
	w.centroid.Reset()
}

func (w *window) len() int { return len(w.ts) - w.head }

// first returns the timestamp of the oldest buffered point.
func (w *window) first() int64 { return w.ts[w.head] }

// halves splits the buffered points at their temporal midpoint and
// returns the centroids of the older and newer halves. With fewer than
// two points ok is false. If the temporal split degenerates (all mass
// on one side), it falls back to an index split.
func (w *window) halves() (older, newer geo.LatLon, ok bool) {
	ts := w.ts[w.head:]
	n := len(ts)
	if n < 2 {
		return geo.LatLon{}, geo.LatLon{}, false
	}
	// Same integer arithmetic as the former time.Time form
	// first.Add(last.Sub(first)/2); the scan condition ts[i] <= mid is
	// exactly !ts[i].After(mid).
	mid := ts[0] + (ts[n-1]-ts[0])/2
	split := 0
	for split < n && ts[split] <= mid {
		split++
	}
	if split == 0 || split == n {
		split = n / 2
	}
	lat := w.lat[w.head:]
	lon := w.lon[w.head:]
	// Fresh left-to-right sums each call (geo.CentroidSoA) — NOT an
	// incremental split centroid: float addition is order-sensitive in
	// the last bits, and the determinism suite pins these bits.
	older = geo.CentroidSoA(lat[:split], lon[:split])
	newer = geo.CentroidSoA(lat[split:n], lon[split:n])
	return older, newer, true
}

// Extractor is the streaming Spatio-Temporal buffer extractor. Feed it
// time-ordered points and it emits StayPoints through the callback
// passed to New; call Flush at end of stream to emit a trailing stay.
//
// The zero value is not usable; construct with NewExtractor.
type Extractor struct {
	params Params
	emit   func(StayPoint)
	radius geo.RadiusTest // params.Radius

	inPoI    bool
	entry    window // buf_Entry while searching
	exit     window // buf_Exit while inside a PoI
	poi      geo.RunningCentroid
	poiStart int64 // UnixNano
	poiLast  int64 // UnixNano
	poiN     int

	maxGap   int64 // params.MaxGap in nanos
	last     int64 // UnixNano of the previous point
	anyPoint bool

	points obs.Tally // params.Obs.Points
}

// NewExtractor returns an extractor that calls emit for every PoI
// found. emit must not retain the StayPoint's address; values are fine.
func NewExtractor(params Params, emit func(StayPoint)) (*Extractor, error) {
	p, err := params.withDefaults()
	if err != nil {
		return nil, err
	}
	if emit == nil {
		return nil, errors.New("poi: nil emit callback")
	}
	e := &Extractor{
		params: p, emit: emit, radius: geo.NewRadiusTest(p.Radius),
		maxGap: int64(p.MaxGap), points: obs.NewTally(p.Obs.Points),
	}
	e.entry.span = int64(p.Window)
	e.exit.span = int64(p.Window)
	e.entry.borrow()
	e.exit.borrow()
	return e, nil
}

// unixUTC converts a stored UnixNano back to the time.Time the point
// arrived with. For the UTC wall-clock times traces carry (no monotonic
// reading), the round trip reproduces the identical struct
// representation, so emitted StayPoint times still compare == to the
// source points'.
func unixUTC(ns int64) time.Time { return time.Unix(0, ns).UTC() }

// Feed processes the next point. Points must be in non-decreasing time
// order; violations return an error and leave the extractor unchanged.
func (e *Extractor) Feed(p trace.Point) error {
	tn := p.T.UnixNano()
	if e.anyPoint && tn < e.last {
		return fmt.Errorf("poi: out-of-order point %v before %v", p.T, unixUTC(e.last))
	}
	if e.anyPoint && tn-e.last > e.maxGap {
		// Trace break: close any open stay and restart cleanly.
		e.closePoI()
		e.entry.reset()
		e.exit.reset()
	}
	e.last = tn
	e.anyPoint = true
	e.points.Inc()

	if e.inPoI {
		e.feedInside(tn, p.Pos)
	} else {
		e.feedSearching(tn, p.Pos)
	}
	return nil
}

func (e *Extractor) feedSearching(tn int64, pos geo.LatLon) {
	e.entry.add(tn, pos)
	older, newer, ok := e.entry.halves()
	if !ok {
		return
	}
	if e.radius.AtLeast(older, newer) {
		return
	}
	// The two half-window centroids coincide: the user has entered a
	// stay region. Seed buf_PoI with the whole entry buffer — the
	// "overlap" of the paper's buffer layout.
	e.inPoI = true
	e.poi.Reset()
	e.poi.AddSoA(e.entry.lat[e.entry.head:], e.entry.lon[e.entry.head:])
	e.poiStart = e.entry.first()
	e.poiLast = tn
	e.poiN = e.entry.len()
	e.exit.reset()
	e.entry.reset()
}

func (e *Extractor) feedInside(tn int64, pos geo.LatLon) {
	e.poi.Add(pos)
	e.poiN++
	e.poiLast = tn
	e.exit.add(tn, pos)
	if e.exit.len() < 2 {
		return
	}
	if e.radius.AtMost(e.poi.Value(), e.exit.centroid.Value()) {
		return
	}
	// The exit buffer has drifted away from the stay centroid: the user
	// left. The stay ends when the exit buffer began filling with
	// departing fixes; remove those fixes from the stay centroid.
	exitStart := e.exit.first()
	h := e.exit.head
	e.poi.RemoveSoA(e.exit.lat[h:], e.exit.lon[h:])
	e.poiN -= e.exit.len()
	e.emitIf(exitStart)
	// Departing fixes become the next search window.
	e.inPoI = false
	e.entry.reset()
	for i := h; i < len(e.exit.ts); i++ {
		e.entry.add(e.exit.ts[i], geo.AtSoA(e.exit.lat, e.exit.lon, i))
	}
	e.exit.reset()
}

// emitIf emits the current stay if it lasted at least MinVisit.
func (e *Extractor) emitIf(end int64) {
	if !e.inPoI {
		return
	}
	if end-e.poiStart >= int64(e.params.MinVisit) && e.poiN > 0 {
		e.params.Obs.Stays.Inc()
		e.emit(StayPoint{
			Pos:     e.poi.Value(),
			Enter:   unixUTC(e.poiStart),
			Exit:    unixUTC(end),
			NPoints: e.poiN,
		})
	}
}

// closePoI ends any open stay at the last seen fix.
func (e *Extractor) closePoI() {
	if e.inPoI {
		e.emitIf(e.poiLast)
		e.inPoI = false
		e.poi.Reset()
		e.poiN = 0
	}
}

// Flush signals end of stream, emitting a trailing stay if one is open.
// The extractor may be reused for another stream afterwards.
func (e *Extractor) Flush() {
	e.closePoI()
	e.entry.reset()
	e.exit.reset()
	e.anyPoint = false
	e.points.Flush()
}

// FlushCounts adds the fixes fed since the last flush to
// Params.Obs.Points, which Feed updates only once per batch of fixes.
// Flush, Park and Release flush too; a caller that stops feeding
// without one of them, or reads the counter mid-stream, calls
// FlushCounts first. It changes no extraction state.
func (e *Extractor) FlushCounts() { e.points.Flush() }

// windowScratch is the pooled backing storage of one window. Sweeps
// build thousands of short-lived extractors (one per user × interval ×
// defense); recycling the grown arrays keeps their steady-state
// allocation near zero. The *windowScratch acts as a pool ticket: the
// window holds it while borrowing so release can hand the (possibly
// regrown) arrays back without allocating a new header.
type windowScratch struct {
	ts  []int64
	lat []float64
	lon []float64
}

var windowPool = sync.Pool{New: func() any { return new(windowScratch) }}

// borrow points the window at pooled backing arrays.
func (w *window) borrow() {
	s := windowPool.Get().(*windowScratch)
	w.scratch = s
	w.ts = s.ts[:0]
	w.lat = s.lat[:0]
	w.lon = s.lon[:0]
	w.head = 0
}

// release returns the window's backing arrays to the pool. A window
// that never borrowed (or already released) is left untouched; a
// released window still works, it just grows fresh unpooled arrays.
func (w *window) release() {
	s := w.scratch
	if s == nil {
		return
	}
	s.ts = w.ts[:0]
	s.lat = w.lat[:0]
	s.lon = w.lon[:0]
	windowPool.Put(s)
	w.scratch = nil
	w.ts, w.lat, w.lon = nil, nil, nil
	w.head = 0
	w.centroid.Reset()
}

// park shrinks the window to exactly its live points, returning the
// (possibly much larger) pooled backing arrays to the pool. The window
// keeps working afterwards — contents, centroid and eviction state are
// untouched, so parking can never change extraction results — it just
// grows fresh unpooled arrays if more points arrive.
func (w *window) park() {
	live := len(w.ts) - w.head
	ts := make([]int64, live)
	lat := make([]float64, live)
	lon := make([]float64, live)
	copy(ts, w.ts[w.head:])
	copy(lat, w.lat[w.head:])
	copy(lon, w.lon[w.head:])
	if s := w.scratch; s != nil {
		s.ts = w.ts[:0]
		s.lat = w.lat[:0]
		s.lon = w.lon[:0]
		windowPool.Put(s)
		w.scratch = nil
	}
	w.ts, w.lat, w.lon = ts, lat, lon
	w.head = 0
}

// footprint estimates the retained bytes of the window's backing
// arrays (capacities, not lengths — dead prefixes and append slack
// count, since that is what the process actually holds).
func (w *window) footprint() int {
	return cap(w.ts)*8 + cap(w.lat)*8 + cap(w.lon)*8
}

// Park releases the extractor's pooled window scratch while keeping
// every buffered point, so a long-lived but currently idle extractor
// (an evicted user in a streaming service) holds only the few minutes
// of fixes its windows actually retain. Unlike Release, the extractor
// remains fully usable: feeding more points after Park produces
// exactly the stays an un-parked extractor would have produced.
func (e *Extractor) Park() {
	e.entry.park()
	e.exit.park()
	e.points.Flush()
}

// Footprint estimates the bytes retained by the extractor's window
// buffers. It is a capacity sum, not a precise heap measurement; its
// job is to let callers pin "parked state stays small" in tests.
func (e *Extractor) Footprint() int {
	return e.entry.footprint() + e.exit.footprint()
}

// Release returns the extractor's internal buffers to a package pool
// for reuse by future extractors. Call it only when the extractor will
// never be fed again (after the final Flush); the convenience drivers
// Extract/ExtractStayPoints and core.BuildProfile do so themselves.
// Release is idempotent.
func (e *Extractor) Release() {
	e.entry.release()
	e.exit.release()
	e.points.Flush()
}

// Extract runs the extractor over an entire source and returns the
// stays in order. It is a convenience for tests and small traces; large
// experiments feed extractors incrementally.
func Extract(src trace.Source, params Params) ([]StayPoint, error) {
	var out []StayPoint
	ex, err := NewExtractor(params, func(s StayPoint) { out = append(out, s) })
	if err != nil {
		return nil, err
	}
	for {
		p, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := ex.Feed(p); err != nil {
			return nil, err
		}
	}
	ex.Flush()
	ex.Release()
	return out, nil
}
