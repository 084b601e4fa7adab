package mobility

import (
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"locwatch/internal/geo"
	"locwatch/internal/trace"
)

// userSource streams one user's GPS fixes over the simulation period.
// Day plans come from the World's shared memoized cache, so a source
// holds no per-day build state of its own; the per-source state is the
// emission clock, the leg/segment cursors, and the noise RNG.
//
// Fixes are generated leg-at-a-time into a pooled batch buffer and
// handed out one by one from it: the per-fix work in Next collapses to
// a bounds check and a copy, while timestamps, interpolation and noise
// run as slice kernels over whole legs. The batch fill replicates the
// former per-fix loop exactly — same time stepping, same segment-cursor
// interpolation, same two noise draws per fix in emission order — so
// the stream is bit-identical (guarded by the fast-path golden test).
type userSource struct {
	w        *World
	u        *User
	interval time.Duration
	noise    *rand.Rand

	day    int
	legs   []leg
	legIdx int
	seg    int // posAtFrom cursor into the current travel leg
	t      time.Time
	inited bool

	buf  *fixBuf // pooled batch storage; nil until first refill
	rd   int     // read cursor into buf.pts[:n]
	n    int     // fixes in the current batch
	done bool    // EOF reached; buf released

	// timesOnly skips geometry and noise: the source emits the exact
	// timestamp sequence of the full stream with zero positions, which
	// is all counting consumers need.
	timesOnly bool
}

// fixBatchMax bounds one batch fill: long stay legs are emitted in
// chunks of this many fixes, keeping pooled buffers at a fixed modest
// footprint regardless of leg length.
const fixBatchMax = 1024

// fixBuf is the pooled per-source batch arena: the emitted points plus
// the SoA scratch (positions, noise displacements, interpolation
// fractions) the batch kernels run over. Sources take one from the pool
// on first refill and return it at EOF, so steady-state trace replay
// allocates nothing per leg. Sources abandoned before EOF simply leak
// their buffer to the GC — correct, just unpooled.
type fixBuf struct {
	pts   []trace.Point
	pos   []geo.LatLon
	east  []float64
	north []float64
	fs    []float64
}

var fixBufPool = sync.Pool{New: func() any {
	return &fixBuf{
		pts:   make([]trace.Point, fixBatchMax),
		pos:   make([]geo.LatLon, fixBatchMax),
		east:  make([]float64, fixBatchMax),
		north: make([]float64, fixBatchMax),
		fs:    make([]float64, fixBatchMax),
	}
}}

// Trace returns a streaming full-period GPS source for the user.
//
// interval is the observation cadence: fixes are emitted every
// max(interval, BaseInterval). Pass 0 for the user's native rate (the
// ground-truth profile view); pass an app's background-access interval
// to obtain exactly what that app would collect, without paying for
// full-rate generation. Emitting at interval i here is equivalent to
// wrapping the native stream in trace.NewSampler(src, i, 0) up to
// sub-interval phase.
func (w *World) Trace(userID int, interval time.Duration) (trace.Source, error) {
	return w.newSource(userID, interval, false)
}

// TraceTimes returns a source yielding exactly the timestamps of
// Trace(userID, interval) with zero positions. Emission timing depends
// only on the leg plan and the interval — never on noise draws or
// interpolation — so the stream has bit-identical length and
// timestamps at a fraction of the cost; use it to count collectable
// fixes (experiment denominators) without generating geometry.
func (w *World) TraceTimes(userID int, interval time.Duration) (trace.Source, error) {
	return w.newSource(userID, interval, true)
}

func (w *World) newSource(userID int, interval time.Duration, timesOnly bool) (*userSource, error) {
	u, err := w.User(userID)
	if err != nil {
		return nil, err
	}
	eff := u.baseInterval
	if interval > eff {
		eff = interval
	}
	s := &userSource{
		w:         w,
		u:         u,
		interval:  eff,
		timesOnly: timesOnly,
	}
	if !timesOnly {
		s.noise = rand.New(rand.NewSource(u.seed*131 + int64(interval/time.Millisecond)%9973 + 7))
	}
	return s, nil
}

var _ trace.Source = (*userSource)(nil)

// Next implements trace.Source.
func (s *userSource) Next() (trace.Point, error) {
	if s.rd < s.n {
		p := s.buf.pts[s.rd]
		s.rd++
		return p, nil
	}
	if err := s.refill(); err != nil {
		return trace.Point{}, err
	}
	s.rd = 1
	return s.buf.pts[0], nil
}

// refill advances the leg/day cursors exactly like the former per-fix
// loop and batch-fills the next chunk of fixes. On success the buffer
// holds at least one point.
func (s *userSource) refill() error {
	if s.done {
		return io.EOF
	}
	for {
		if !s.inited || s.legIdx >= len(s.legs) {
			if !s.advanceDay() {
				s.done = true
				s.releaseBuf()
				return io.EOF
			}
			continue
		}
		l := &s.legs[s.legIdx]
		if s.t.Before(l.start) {
			s.t = l.start
		}
		if s.t.After(l.end) {
			s.nextLeg()
			continue
		}
		if !l.recorded {
			s.nextLeg()
			continue
		}
		if !l.recFrom.IsZero() && s.t.Before(l.recFrom) {
			s.t = l.recFrom
		}
		if !l.recTo.IsZero() && s.t.After(l.recTo) {
			s.nextLeg()
			continue
		}
		s.fillLeg(l)
		return nil
	}
}

// fillLeg emits up to fixBatchMax fixes of the current leg into the
// batch buffer, starting at the (already clamped) emission clock s.t.
// The emission count is the number of interval steps that fit before
// the recorded end of the leg — the same fixes the per-fix loop would
// have produced one at a time.
func (s *userSource) fillLeg(l *leg) {
	tEnd := l.end
	if !l.recTo.IsZero() && l.recTo.Before(tEnd) {
		tEnd = l.recTo
	}
	n := int(tEnd.Sub(s.t)/s.interval) + 1
	if n > fixBatchMax {
		n = fixBatchMax
	}
	if s.buf == nil {
		s.buf = fixBufPool.Get().(*fixBuf)
	}
	b := s.buf
	pts := b.pts[:n]
	t := s.t
	for i := range pts {
		pts[i] = trace.Point{T: t}
		t = t.Add(s.interval)
	}
	if !s.timesOnly {
		pos := b.pos[:n]
		s.fillPositions(l, pts, pos)
		if sigma := s.w.cfg.NoiseSigma; sigma > 0 {
			east, north := b.east[:n], b.north[:n]
			for i := range east {
				east[i], north[i] = noiseOffset(s.noise, sigma)
			}
			s.w.proj.OffsetBatch(pos, east, north)
		}
		for i := range pts {
			pts[i].Pos = pos[i]
		}
	}
	s.t = t
	s.rd, s.n = 0, n
	s.w.metrics.Fixes.Add(uint64(n))
}

// fillPositions computes the noiseless positions of the batch: a
// constant venue position for stays, batched segment interpolation for
// travel. The travel path replicates posAtFrom per fix — same fraction
// and target arithmetic, same monotone segment cursor (s.seg persists
// across chunks of one leg), same clamping — grouping consecutive
// fixes that land in one segment into a geo.InterpolateBatch call.
func (s *userSource) fillPositions(l *leg, pts []trace.Point, pos []geo.LatLon) {
	if l.kind == stayLeg {
		for i := range pos {
			pos[i] = l.venue.Pos
		}
		return
	}
	dur := l.duration()
	last := l.path[len(l.path)-1]
	if dur <= 0 {
		for i := range pos {
			pos[i] = last
		}
		return
	}
	total := l.cum[len(l.cum)-1]
	fs := s.buf.fs[:len(pos)]
	for i := 0; i < len(pos); {
		frac := float64(pts[i].T.Sub(l.start)) / float64(dur)
		if frac <= 0 {
			pos[i] = l.path[0]
			i++
			continue
		}
		if frac >= 1 {
			pos[i] = last
			i++
			continue
		}
		target := frac * total
		seg := s.seg
		if seg < 1 {
			seg = 1
		}
		for ; seg < len(l.cum); seg++ {
			if target <= l.cum[seg] {
				break
			}
		}
		if seg == len(l.cum) {
			// Past the last cumulative mark (float round-off): the scan
			// exhausts without moving the cursor, like posAtFrom.
			pos[i] = last
			i++
			continue
		}
		s.seg = seg
		segLen := l.cum[seg] - l.cum[seg-1]
		if segLen <= 0 {
			pos[i] = l.path[seg]
			i++
			continue
		}
		// Batch every following fix that stays inside this segment.
		j := i
		for j < len(pos) {
			fj := float64(pts[j].T.Sub(l.start)) / float64(dur)
			if fj >= 1 {
				break
			}
			tj := fj * total
			if tj > l.cum[seg] {
				break
			}
			fs[j] = (tj - l.cum[seg-1]) / segLen
			j++
		}
		geo.InterpolateBatch(pos[i:j], l.path[seg-1], l.path[seg], fs[i:j])
		i = j
	}
}

// releaseBuf returns the batch buffer to the pool at end of stream.
func (s *userSource) releaseBuf() {
	if s.buf != nil {
		fixBufPool.Put(s.buf)
		s.buf = nil
	}
}

// nextLeg advances the leg cursor and resets the segment cursor, which
// is only monotone within one leg.
func (s *userSource) nextLeg() {
	s.legIdx++
	s.seg = 1
}

// advanceDay fetches the next day's cached legs; false when the period
// ends.
func (s *userSource) advanceDay() bool {
	if s.inited {
		s.day++
	}
	s.inited = true
	for ; s.day < s.w.cfg.Days; s.day++ {
		legs := s.w.dayLegs(s.u, s.day)
		if len(legs) == 0 {
			continue
		}
		s.legs = legs
		s.legIdx = 0
		s.seg = 1
		s.t = legs[0].start
		return true
	}
	return false
}

// noiseOffset draws one fix's GPS error as a planar (east, north)
// displacement: a uniform bearing and a |N(0, sigma)| radius, the same
// two RNG draws in the same order as the spherical geo.Destination
// form it replaces, so trace timing and every downstream seeded stream
// stay aligned. Applying the displacement through the world's
// city-anchored projection differs from the spherical form by well
// under a meter at city scale (asserted in the tests).
func noiseOffset(rng *rand.Rand, sigma float64) (east, north float64) {
	sin, cos := math.Sincos(rng.Float64() * 2 * math.Pi)
	r := gaussAbs(rng, sigma)
	return r * sin, r * cos
}

// gaussAbs draws |N(0, sigma)| — radial GPS error magnitude.
func gaussAbs(rng *rand.Rand, sigma float64) float64 {
	v := rng.NormFloat64() * sigma
	if v < 0 {
		v = -v
	}
	return v
}
