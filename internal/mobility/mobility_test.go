package mobility

import (
	"errors"
	"io"
	"testing"
	"time"

	"locwatch/internal/geo"
	"locwatch/internal/poi"
	"locwatch/internal/trace"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Users = 8
	cfg.Days = 4
	cfg.Venues = 80
	return cfg
}

func mustWorld(t testing.TB, cfg Config) *World {
	t.Helper()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestConfigValidation(t *testing.T) {
	base := testConfig()
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero users", func(c *Config) { c.Users = 0 }},
		{"zero days", func(c *Config) { c.Days = 0 }},
		{"zero radius", func(c *Config) { c.CityRadius = 0 }},
		{"too few venues", func(c *Config) { c.Venues = 5 }},
		{"negative noise", func(c *Config) { c.NoiseSigma = -1 }},
		{"bad fractions", func(c *Config) { c.FracTripsOnly = 0.8; c.FracSparse = 0.5 }},
		{"zero start", func(c *Config) { c.Start = time.Time{} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestWorldDeterminism(t *testing.T) {
	cfg := testConfig()
	w1 := mustWorld(t, cfg)
	w2 := mustWorld(t, cfg)
	s1, err := w1.Trace(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := w2.Trace(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		p1, err1 := s1.Next()
		p2, err2 := s2.Next()
		if !errors.Is(err1, err2) && (err1 != nil || err2 != nil) {
			t.Fatalf("error divergence at %d: %v vs %v", i, err1, err2)
		}
		if err1 != nil {
			break
		}
		if p1 != p2 {
			t.Fatalf("point %d differs: %v vs %v", i, p1, p2)
		}
	}
}

func TestWorldSeedChangesTraces(t *testing.T) {
	cfg := testConfig()
	w1 := mustWorld(t, cfg)
	cfg.Seed = 999
	w2 := mustWorld(t, cfg)
	s1, _ := w1.Trace(0, 0)
	s2, _ := w2.Trace(0, 0)
	same := true
	for i := 0; i < 100; i++ {
		p1, err1 := s1.Next()
		p2, err2 := s2.Next()
		if err1 != nil || err2 != nil {
			break
		}
		if p1 != p2 {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTraceTimeOrderedAndInCity(t *testing.T) {
	w := mustWorld(t, testConfig())
	for id := 0; id < w.NumUsers(); id++ {
		src, err := w.Trace(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		var prev time.Time
		n := 0
		for {
			p, err := src.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if p.T.Before(prev) {
				t.Fatalf("user %d: out-of-order point at %v", id, p.T)
			}
			prev = p.T
			if d := geo.Distance(p.Pos, w.Config().CityCenter); d > w.Config().CityRadius*1.5 {
				t.Fatalf("user %d: point %v km from city center", id, d/1000)
			}
			n++
		}
		if n == 0 {
			t.Fatalf("user %d produced no points at all", id)
		}
	}
}

func TestTraceIntervalThinsStream(t *testing.T) {
	w := mustWorld(t, testConfig())
	counts := map[time.Duration]int{}
	for _, iv := range []time.Duration{0, 30 * time.Second, 10 * time.Minute} {
		src, err := w.Trace(0, iv)
		if err != nil {
			t.Fatal(err)
		}
		n, err := trace.Count(src)
		if err != nil {
			t.Fatal(err)
		}
		counts[iv] = n
	}
	if !(counts[0] > counts[30*time.Second] && counts[30*time.Second] > counts[10*time.Minute]) {
		t.Fatalf("interval did not thin the stream: %v", counts)
	}
	if counts[10*time.Minute] == 0 {
		t.Fatal("10-minute interval produced nothing")
	}
}

func TestContinuousUserYieldsHomeAndWorkPoIs(t *testing.T) {
	cfg := testConfig()
	cfg.FracTripsOnly = 0
	cfg.FracSparse = 0
	w := mustWorld(t, cfg)
	u, err := w.User(0)
	if err != nil {
		t.Fatal(err)
	}
	src, err := w.Trace(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	stays, err := poi.Extract(src, poi.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(stays) < cfg.Days { // at least one stay per day
		t.Fatalf("only %d stays over %d days", len(stays), cfg.Days)
	}
	foundHome, foundWork := false, false
	for _, s := range stays {
		if geo.Distance(s.Pos, u.Home.Pos) < 75 {
			foundHome = true
		}
		if geo.Distance(s.Pos, u.Work.Pos) < 75 {
			foundWork = true
		}
	}
	if !foundHome || !foundWork {
		t.Fatalf("home found=%v work found=%v among %d stays", foundHome, foundWork, len(stays))
	}
}

func TestTripsOnlyUserStarvesExtractor(t *testing.T) {
	cfg := testConfig()
	cfg.FracTripsOnly = 1
	cfg.FracSparse = 0
	w := mustWorld(t, cfg)
	if u, _ := w.User(0); u.Mode != RecordTripsOnly {
		t.Fatalf("user 0 mode = %v", u.Mode)
	}
	src, err := w.Trace(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	stays, err := poi.Extract(src, poi.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// A trips-only recorder captures ≤2 min around each stay: far under
	// the 10-minute MinVisit, so at most stray artifacts appear.
	if len(stays) > 2 {
		t.Fatalf("trips-only user produced %d stays", len(stays))
	}
}

func TestSparseUserProducesFewerPoints(t *testing.T) {
	cfg := testConfig()
	cfg.FracTripsOnly = 0
	cfg.FracSparse = 0
	wCont := mustWorld(t, cfg)
	cfg.FracSparse = 1
	wSparse := mustWorld(t, cfg)
	nCont := countUserPoints(t, wCont, 0)
	nSparse := countUserPoints(t, wSparse, 0)
	if nSparse*3 > nCont*2 {
		t.Fatalf("sparse user has %d points vs continuous %d", nSparse, nCont)
	}
}

func countUserPoints(t *testing.T, w *World, id int) int {
	t.Helper()
	src, err := w.Trace(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := trace.Count(src)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestUserAccessors(t *testing.T) {
	w := mustWorld(t, testConfig())
	if _, err := w.User(-1); err == nil {
		t.Fatal("User(-1) should error")
	}
	if _, err := w.User(w.NumUsers()); err == nil {
		t.Fatal("User(N) should error")
	}
	if _, err := w.Trace(w.NumUsers(), 0); err == nil {
		t.Fatal("Trace of missing user should error")
	}
	u, err := w.User(0)
	if err != nil {
		t.Fatal(err)
	}
	if u.BaseInterval() < time.Second || u.BaseInterval() > 5*time.Second {
		t.Fatalf("base interval %v outside GeoLife's 1–5 s", u.BaseInterval())
	}
	if ids := u.RareVenueIDs(); len(ids) == 0 {
		t.Fatal("user has no rare venues")
	}
	if len(w.Venues()) == 0 {
		t.Fatal("no venues")
	}
}

func TestVenuePoolComposition(t *testing.T) {
	w := mustWorld(t, testConfig())
	byKind := map[VenueKind]int{}
	for _, v := range w.Venues() {
		byKind[v.Kind]++
	}
	for _, k := range []VenueKind{Residential, Office, Food, Leisure, Shop, Rare} {
		if byKind[k] == 0 {
			t.Fatalf("no venues of kind %v", k)
		}
	}
}

func TestRecordingModeMix(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 182
	cfg.Days = 1
	w := mustWorld(t, cfg)
	modes := map[RecordingMode]int{}
	for i := 0; i < w.NumUsers(); i++ {
		u, _ := w.User(i)
		modes[u.Mode]++
	}
	frac := func(m RecordingMode) float64 { return float64(modes[m]) / float64(cfg.Users) }
	if f := frac(RecordTripsOnly); f < 0.15 || f > 0.35 {
		t.Fatalf("trips-only fraction %v far from configured 0.25", f)
	}
	if f := frac(RecordSparse); f < 0.08 || f > 0.30 {
		t.Fatalf("sparse fraction %v far from configured 0.18", f)
	}
	if modes[RecordContinuous] == 0 {
		t.Fatal("no continuous users")
	}
}

func TestStringers(t *testing.T) {
	if Residential.String() == "" || VenueKind(99).String() == "" {
		t.Fatal("VenueKind.String broken")
	}
	if RecordContinuous.String() != "continuous" || RecordingMode(99).String() == "" {
		t.Fatal("RecordingMode.String broken")
	}
}

func TestHabitualOrderIsStableAcrossDays(t *testing.T) {
	// The same user visits their evening-routine venues in the same
	// order on different days — the property pattern 2 exploits.
	cfg := testConfig()
	cfg.FracTripsOnly = 0
	cfg.FracSparse = 0
	cfg.Days = 6
	w := mustWorld(t, cfg)
	u, _ := w.User(1)
	if len(u.EveningRoutine) < 1 {
		t.Skip("user 1 has no evening routine in this seed")
	}
	// Across all days, whenever two routine venues appear in one day's
	// legs, the first routine stop never follows the second.
	idx := func(v Venue) int {
		for i, s := range u.EveningRoutine {
			if s.venue.ID == v.ID {
				return i
			}
		}
		return -1
	}
	for day := 0; day < cfg.Days; day++ {
		legs := w.dayLegs(u, day)
		lastIdx := -1
		for _, l := range legs {
			if l.kind != stayLeg {
				continue
			}
			if i := idx(l.venue); i >= 0 {
				if i < lastIdx {
					t.Fatalf("day %d: routine order violated", day)
				}
				lastIdx = i
			}
		}
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	cfg := testConfig()
	w := mustWorld(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		src, err := w.Trace(0, 0)
		if err != nil {
			b.Fatal(err)
		}
		n, err := trace.Count(src)
		if err != nil {
			b.Fatal(err)
		}
		total += n
	}
	b.ReportMetric(float64(total)/float64(b.N), "points/trace")
}
