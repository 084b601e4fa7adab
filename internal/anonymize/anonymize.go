// Package anonymize implements the trusted-server location-privacy
// baselines the paper's related work surveys, chiefly Gruteser &
// Grunwald's adaptive quadtree spatial cloaking: instead of a user's
// position, the server releases the smallest quadtree cell containing
// at least k users, guaranteeing k-anonymity per release.
//
// These mechanisms need a view of *all* users' concurrent positions —
// exactly what the paper argues a smartphone-side defense cannot have
// — so they live in their own package, operating on time-aligned
// position matrices built from any set of trace sources.
package anonymize

import (
	"errors"
	"fmt"
	"io"
	"time"

	"locwatch/internal/geo"
	"locwatch/internal/trace"
)

// Cloaker performs adaptive quadtree spatial cloaking over one
// snapshot of user positions.
type Cloaker struct {
	proj *geo.Projection
	half float64 // root half-size in meters
	k    int
	min  float64 // minimum cell half-size (resolution floor)
}

// NewCloaker covers a square of ±halfSize meters around anchor and
// guarantees each release covers at least k users. minCell bounds the
// recursion (a smaller cell is never released even if it still holds k
// users); pass 0 for no floor.
func NewCloaker(anchor geo.LatLon, halfSize float64, k int, minCell float64) (*Cloaker, error) {
	if halfSize <= 0 {
		return nil, fmt.Errorf("anonymize: half size must be positive, got %v", halfSize)
	}
	if k < 2 {
		return nil, fmt.Errorf("anonymize: k must be at least 2, got %d", k)
	}
	if minCell < 0 {
		return nil, errors.New("anonymize: negative min cell")
	}
	return &Cloaker{proj: geo.NewProjection(anchor), half: halfSize, k: k, min: minCell}, nil
}

// K returns the anonymity parameter.
func (c *Cloaker) K() int { return c.k }

// Cloak returns the released region for user who given everyone's
// current positions: the smallest quadtree cell around the user still
// containing at least k users. The boolean is false when even the root
// square fails the k constraint (the release must then be suppressed).
func (c *Cloaker) Cloak(positions []geo.LatLon, who int) (geo.BoundingBox, bool) {
	if who < 0 || who >= len(positions) {
		return geo.BoundingBox{}, false
	}
	type rect struct{ cx, cy, half float64 }
	cur := rect{0, 0, c.half}

	inside := func(r rect, p geo.LatLon) bool {
		x, y := c.proj.ToXY(p)
		return x >= r.cx-r.half && x < r.cx+r.half && y >= r.cy-r.half && y < r.cy+r.half
	}
	count := func(r rect) int {
		n := 0
		for _, p := range positions {
			if inside(r, p) {
				n++
			}
		}
		return n
	}

	if !inside(cur, positions[who]) || count(cur) < c.k {
		return geo.BoundingBox{}, false
	}
	for {
		if c.min > 0 && cur.half/2 < c.min {
			break
		}
		// Quadrant containing the user.
		x, y := c.proj.ToXY(positions[who])
		next := rect{cur.cx - cur.half/2, cur.cy - cur.half/2, cur.half / 2}
		if x >= cur.cx {
			next.cx = cur.cx + cur.half/2
		}
		if y >= cur.cy {
			next.cy = cur.cy + cur.half/2
		}
		if count(next) < c.k {
			break
		}
		cur = next
	}
	sw := c.proj.FromXY(cur.cx-cur.half, cur.cy-cur.half)
	ne := c.proj.FromXY(cur.cx+cur.half, cur.cy+cur.half)
	return geo.BoundingBox{MinLat: sw.Lat, MinLon: sw.Lon, MaxLat: ne.Lat, MaxLon: ne.Lon}, true
}

// CloakAll computes every user's cloak over one snapshot in a single
// recursive partition of the implicit quadtree — O(n log n) instead of
// n independent walks. ok[i] is false when user i is outside the root
// square or the whole snapshot fails the k constraint.
func (c *Cloaker) CloakAll(positions []geo.LatLon) (boxes []geo.BoundingBox, ok []bool) {
	n := len(positions)
	boxes = make([]geo.BoundingBox, n)
	ok = make([]bool, n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	var inRoot []int
	for i, p := range positions {
		x, y := c.proj.ToXY(p)
		xs[i], ys[i] = x, y
		if x >= -c.half && x < c.half && y >= -c.half && y < c.half {
			inRoot = append(inRoot, i)
		}
	}
	if len(inRoot) < c.k {
		return boxes, ok
	}
	var assign func(cx, cy, half float64, members []int)
	assign = func(cx, cy, half float64, members []int) {
		release := func(ids []int) {
			sw := c.proj.FromXY(cx-half, cy-half)
			ne := c.proj.FromXY(cx+half, cy+half)
			box := geo.BoundingBox{MinLat: sw.Lat, MinLon: sw.Lon, MaxLat: ne.Lat, MaxLon: ne.Lon}
			for _, id := range ids {
				boxes[id] = box
				ok[id] = true
			}
		}
		if c.min > 0 && half/2 < c.min {
			release(members)
			return
		}
		quads := make([][]int, 4)
		for _, id := range members {
			q := 0
			if xs[id] >= cx {
				q |= 1
			}
			if ys[id] >= cy {
				q |= 2
			}
			quads[q] = append(quads[q], id)
		}
		for q, ids := range quads {
			if len(ids) == 0 {
				continue
			}
			if len(ids) < c.k {
				release(ids)
				continue
			}
			ncx, ncy := cx-half/2, cy-half/2
			if q&1 != 0 {
				ncx = cx + half/2
			}
			if q&2 != 0 {
				ncy = cy + half/2
			}
			assign(ncx, ncy, half/2, ids)
		}
	}
	assign(0, 0, c.half, inRoot)
	return boxes, ok
}

// AlignedPositions is a users × ticks matrix of positions sampled on a
// shared time grid — the trusted server's view.
type AlignedPositions struct {
	Start    time.Time
	Interval time.Duration
	// Pos[u][t] is user u's position at tick t; Known[u][t] reports
	// whether the user had produced any fix by that tick (the position
	// is then the last known one, possibly stale); Fresh[u][t] reports
	// whether a fix arrived within the tick ending at t (consumers that
	// need live releases — e.g. the tracking adversary — check Fresh,
	// while the cloaking server accepts stale last-known positions).
	Pos   [][]geo.LatLon
	Known [][]bool
	Fresh [][]bool
}

// Ticks returns the number of grid instants.
func (a *AlignedPositions) Ticks() int {
	if len(a.Pos) == 0 {
		return 0
	}
	return len(a.Pos[0])
}

// Snapshot returns every user's position at tick t (users without a
// fix yet are excluded via the returned index list).
func (a *AlignedPositions) Snapshot(t int) (positions []geo.LatLon, users []int) {
	for u := range a.Pos {
		if a.Known[u][t] {
			positions = append(positions, a.Pos[u][t])
			users = append(users, u)
		}
	}
	return positions, users
}

// Align samples each source's position on a shared grid of the given
// interval spanning [start, end): the position at tick t is the last
// fix at or before that instant.
func Align(sources []trace.Source, start, end time.Time, interval time.Duration) (*AlignedPositions, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("anonymize: interval must be positive, got %v", interval)
	}
	if !end.After(start) {
		return nil, fmt.Errorf("anonymize: end %v not after start %v", end, start)
	}
	ticks := int(end.Sub(start) / interval)
	if ticks <= 0 {
		return nil, errors.New("anonymize: window shorter than one tick")
	}
	a := &AlignedPositions{
		Start:    start,
		Interval: interval,
		Pos:      make([][]geo.LatLon, len(sources)),
		Known:    make([][]bool, len(sources)),
		Fresh:    make([][]bool, len(sources)),
	}
	for u, src := range sources {
		a.Pos[u] = make([]geo.LatLon, ticks)
		a.Known[u] = make([]bool, ticks)
		a.Fresh[u] = make([]bool, ticks)
		var last geo.LatLon
		have := false
		tick := 0
		fill := func(until int) {
			for ; tick < until && tick < ticks; tick++ {
				a.Pos[u][tick] = last
				a.Known[u][tick] = have
			}
		}
		err := trace.ForEach(src, func(p trace.Point) error {
			if p.T.After(end) {
				return io.EOF
			}
			idx := int(p.T.Sub(start)/interval) + 1
			if idx > 0 {
				fill(idx)
			}
			last = p.Pos
			have = true
			if idx >= 1 && idx <= ticks {
				// This fix lands in the tick ending at idx-1's grid
				// instant; the position there is live, not carried.
				a.Fresh[u][idx-1] = true
			}
			return nil
		})
		if err != nil && !errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("anonymize: aligning user %d: %w", u, err)
		}
		fill(ticks)
	}
	return a, nil
}

// AnonymitySetSize returns how many users share the released cell —
// the realized anonymity of one release.
func AnonymitySetSize(positions []geo.LatLon, box geo.BoundingBox) int {
	n := 0
	for _, p := range positions {
		if box.Contains(p) {
			n++
		}
	}
	return n
}
