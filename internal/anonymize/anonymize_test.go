package anonymize

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"locwatch/internal/geo"
	"locwatch/internal/trace"
)

var (
	anchor = geo.LatLon{Lat: 39.9042, Lon: 116.4074}
	aStart = time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC)
)

func TestNewCloakerValidation(t *testing.T) {
	if _, err := NewCloaker(anchor, 0, 5, 0); err == nil {
		t.Fatal("zero half size accepted")
	}
	if _, err := NewCloaker(anchor, 1000, 1, 0); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := NewCloaker(anchor, 1000, 2, -1); err == nil {
		t.Fatal("negative min cell accepted")
	}
	c, err := NewCloaker(anchor, 1000, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.K() != 5 {
		t.Fatalf("K = %d", c.K())
	}
}

func TestCloakGuaranteesK(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, err := NewCloaker(anchor, 10000, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	positions := make([]geo.LatLon, 50)
	for i := range positions {
		positions[i] = geo.Destination(anchor, rng.Float64()*360, math.Sqrt(rng.Float64())*8000)
	}
	for who := range positions {
		box, ok := c.Cloak(positions, who)
		if !ok {
			t.Fatalf("cloak failed for user %d", who)
		}
		if !box.Contains(positions[who]) {
			t.Fatalf("user %d outside own cloak", who)
		}
		if n := AnonymitySetSize(positions, box); n < 5 {
			t.Fatalf("user %d cloak holds only %d users", who, n)
		}
	}
}

func TestCloakAdaptsToDensity(t *testing.T) {
	// 20 users packed downtown, 1 user alone in the suburbs: the dense
	// user's cloak is small, the lone user's cloak is much larger.
	c, err := NewCloaker(anchor, 20000, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The cluster sits well inside one quadrant chain; a crowd exactly
	// on the quadtree center would split across quadrants and get the
	// root cell, which is correct but uninteresting here.
	downtown := geo.Destination(anchor, 90, 5000)
	rng := rand.New(rand.NewSource(2))
	var positions []geo.LatLon
	for i := 0; i < 20; i++ {
		positions = append(positions, geo.Destination(downtown, rng.Float64()*360, rng.Float64()*200))
	}
	suburb := geo.Destination(anchor, 270, 12000)
	positions = append(positions, suburb)

	dense, ok := c.Cloak(positions, 0)
	if !ok {
		t.Fatal("dense cloak failed")
	}
	lone, ok := c.Cloak(positions, 20)
	if !ok {
		t.Fatal("lone cloak failed")
	}
	if dense.Area() >= lone.Area() {
		t.Fatalf("dense cloak (%v m²) not smaller than lone cloak (%v m²)", dense.Area(), lone.Area())
	}
}

func TestCloakFailsWhenPopulationTooSmall(t *testing.T) {
	c, err := NewCloaker(anchor, 10000, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	positions := []geo.LatLon{anchor, geo.Destination(anchor, 90, 100)}
	if _, ok := c.Cloak(positions, 0); ok {
		t.Fatal("cloak succeeded with 2 users at k=5")
	}
	// Out-of-range user index.
	if _, ok := c.Cloak(positions, 99); ok {
		t.Fatal("cloak succeeded for a phantom user")
	}
	// User outside the root square.
	far := append(positions, geo.Destination(anchor, 0, 50000))
	if _, ok := c.Cloak(far, 2); ok {
		t.Fatal("cloak succeeded outside the root")
	}
}

func TestCloakMinCellFloor(t *testing.T) {
	// With a resolution floor the released cell never shrinks below it,
	// even in an extremely dense crowd.
	c, err := NewCloaker(anchor, 16000, 2, 500)
	if err != nil {
		t.Fatal(err)
	}
	positions := []geo.LatLon{anchor, geo.Destination(anchor, 10, 5), geo.Destination(anchor, 200, 5)}
	box, ok := c.Cloak(positions, 0)
	if !ok {
		t.Fatal("cloak failed")
	}
	if a := box.Area(); a < 500*500*4*0.9 {
		t.Fatalf("cell area %v below the floor", a)
	}
}

// gridSources builds n users walking around distinct home points, each
// emitting a fix every 10 s for an hour.
func gridSources(n int) ([]trace.Source, time.Time) {
	sources := make([]trace.Source, n)
	for u := 0; u < n; u++ {
		home := geo.Destination(anchor, float64(u*360/max(n, 1)), 500+float64(u)*150)
		var pts []trace.Point
		for i := 0; i < 360; i++ {
			pts = append(pts, trace.Point{
				Pos: geo.Destination(home, float64(i), float64(i%30)),
				T:   aStart.Add(time.Duration(i) * 10 * time.Second),
			})
		}
		sources[u] = trace.NewSliceSource(pts)
	}
	return sources, aStart.Add(time.Hour)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestAlignValidation(t *testing.T) {
	srcs, end := gridSources(2)
	if _, err := Align(srcs, aStart, end, 0); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := Align(srcs, end, aStart, time.Minute); err == nil {
		t.Fatal("inverted window accepted")
	}
}

func TestAlignGrid(t *testing.T) {
	srcs, end := gridSources(3)
	a, err := Align(srcs, aStart, end, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ticks() != 60 {
		t.Fatalf("Ticks = %d", a.Ticks())
	}
	// Every user known from tick 1 on (first fix is at aStart).
	for u := 0; u < 3; u++ {
		for tick := 1; tick < a.Ticks(); tick++ {
			if !a.Known[u][tick] {
				t.Fatalf("user %d unknown at tick %d", u, tick)
			}
		}
	}
	positions, users := a.Snapshot(30)
	if len(positions) != 3 || len(users) != 3 {
		t.Fatalf("snapshot: %d positions", len(positions))
	}
}

func TestAlignHandlesLateStarters(t *testing.T) {
	early := trace.NewSliceSource([]trace.Point{
		{Pos: anchor, T: aStart},
		{Pos: anchor, T: aStart.Add(50 * time.Minute)},
	})
	late := trace.NewSliceSource([]trace.Point{
		{Pos: geo.Destination(anchor, 90, 100), T: aStart.Add(30 * time.Minute)},
	})
	a, err := Align([]trace.Source{early, late}, aStart, aStart.Add(time.Hour), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if a.Known[1][10] {
		t.Fatal("late starter known before first fix")
	}
	if !a.Known[1][45] {
		t.Fatal("late starter unknown after first fix")
	}
	if pos, users := a.Snapshot(10); len(pos) != 1 || users[0] != 0 {
		t.Fatalf("snapshot at tick 10: %v %v", pos, users)
	}
}

func TestAnonymitySetSize(t *testing.T) {
	box := geo.NewBoundingBox([]geo.LatLon{
		geo.Destination(anchor, 225, 1000),
		geo.Destination(anchor, 45, 1000),
	})
	positions := []geo.LatLon{
		anchor,
		geo.Destination(anchor, 45, 500),
		geo.Destination(anchor, 45, 5000),
	}
	if n := AnonymitySetSize(positions, box); n != 2 {
		t.Fatalf("AnonymitySetSize = %d", n)
	}
}

func TestCloakAllAgreesWithCloak(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, err := NewCloaker(anchor, 16000, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	positions := make([]geo.LatLon, 60)
	for i := range positions {
		positions[i] = geo.Destination(anchor, rng.Float64()*360, math.Sqrt(rng.Float64())*9000)
	}
	boxes, oks := c.CloakAll(positions)
	for who := range positions {
		want, wantOK := c.Cloak(positions, who)
		if oks[who] != wantOK {
			t.Fatalf("user %d: CloakAll ok=%v, Cloak ok=%v", who, oks[who], wantOK)
		}
		if !wantOK {
			continue
		}
		if boxes[who] != want {
			t.Fatalf("user %d: CloakAll box %+v != Cloak box %+v", who, boxes[who], want)
		}
	}
}

func TestCloakAllKGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, k := range []int{2, 5, 10} {
		c, err := NewCloaker(anchor, 16000, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		positions := make([]geo.LatLon, 80)
		for i := range positions {
			positions[i] = geo.Destination(anchor, rng.Float64()*360, math.Sqrt(rng.Float64())*9000)
		}
		boxes, oks := c.CloakAll(positions)
		for who, ok := range oks {
			if !ok {
				continue
			}
			if n := AnonymitySetSize(positions, boxes[who]); n < k {
				t.Fatalf("k=%d user %d: cloak holds only %d users", k, who, n)
			}
		}
	}
}

func TestCloakAllEmptyAndSparse(t *testing.T) {
	c, err := NewCloaker(anchor, 16000, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	boxes, oks := c.CloakAll(nil)
	if len(boxes) != 0 || len(oks) != 0 {
		t.Fatal("empty snapshot mishandled")
	}
	_, oks = c.CloakAll([]geo.LatLon{anchor, anchor})
	for _, ok := range oks {
		if ok {
			t.Fatal("cloak granted below k users")
		}
	}
}
