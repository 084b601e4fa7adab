package experiments

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"locwatch/internal/core"
	"locwatch/internal/mobility"
	"locwatch/internal/trace"
)

// tinyConfig keeps unit-test runtimes low; TestEndToEnd* use Quick().
func tinyConfig() Config {
	cfg := Default()
	cfg.Mobility.Users = 10
	cfg.Mobility.Days = 6
	cfg.Intervals = []time.Duration{0, 10 * time.Minute}
	return cfg
}

func mustLab(t testing.TB, cfg Config) *Lab {
	t.Helper()
	l, err := NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestConfigValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.SplitFraction = 1.5
	if _, err := NewLab(cfg); err == nil {
		t.Fatal("bad split accepted")
	}
	cfg = tinyConfig()
	cfg.SensitiveMaxVisits = 0
	if _, err := NewLab(cfg); err == nil {
		t.Fatal("zero sensitive threshold accepted")
	}
	cfg = tinyConfig()
	cfg.Intervals = nil
	if _, err := NewLab(cfg); err == nil {
		t.Fatal("empty sweep accepted")
	}
	cfg = tinyConfig()
	cfg.Mobility = mobility.Config{}
	if _, err := NewLab(cfg); err == nil {
		t.Fatal("invalid mobility config accepted")
	}
}

func TestLabCachesProfiles(t *testing.T) {
	l := mustLab(t, tinyConfig())
	p1, err := l.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := l.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	if &p1[0] != &p2[0] {
		t.Fatal("profiles rebuilt instead of cached")
	}
	if len(p1) != l.World().NumUsers() {
		t.Fatalf("%d profiles for %d users", len(p1), l.World().NumUsers())
	}
	h1, err := l.HistoricalProfiles()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := l.HistoricalProfiles()
	if err != nil {
		t.Fatal(err)
	}
	if &h1[0] != &h2[0] {
		t.Fatal("historical profiles rebuilt instead of cached")
	}
	// Historical profiles cover a strict subset of the data.
	for i := range p1 {
		if h1[i].NumPoints() >= p1[i].NumPoints() && p1[i].NumPoints() > 0 {
			t.Fatalf("user %d: history has %d of %d points", i, h1[i].NumPoints(), p1[i].NumPoints())
		}
	}
}

func TestProfilesAtCachesPerInterval(t *testing.T) {
	l := mustLab(t, tinyConfig())
	// Profiles is the interval-0 view of the same cache.
	p0, err := l.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	at0, err := l.ProfilesAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if &p0[0] != &at0[0] {
		t.Fatal("Profiles and ProfilesAt(0) built separate slices")
	}
	iv := 10 * time.Minute
	s1, err := l.ProfilesAt(iv)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := l.ProfilesAt(iv)
	if err != nil {
		t.Fatal(err)
	}
	if &s1[0] != &s2[0] {
		t.Fatal("per-interval profiles rebuilt instead of cached")
	}
	if &s1[0] == &p0[0] {
		t.Fatal("distinct intervals share one cache entry")
	}
	// Coarser sampling can only lose visits.
	var fine, coarse int
	for i := range p0 {
		fine += p0[i].NumVisits()
		coarse += s1[i].NumVisits()
	}
	if coarse > fine {
		t.Fatalf("coarser sampling observed more visits (%d > %d)", coarse, fine)
	}
}

func TestCollectedAtCachesPerInterval(t *testing.T) {
	l := mustLab(t, tinyConfig())
	c1, err := l.collectedAt(0)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := l.collectedAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if &c1[0] != &c2[0] {
		t.Fatal("collected profiles rebuilt instead of cached")
	}
	// The collection window is the period after the history split, so
	// collected data is a strict subset of the full-period profile.
	full, err := l.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	for i := range c1 {
		if full[i].NumPoints() > 0 && c1[i].NumPoints() >= full[i].NumPoints() {
			t.Fatalf("user %d: collected %d of %d points", i, c1[i].NumPoints(), full[i].NumPoints())
		}
	}
}

// TestCachedConcurrentGet checks the memo's contract under concurrent
// first calls: every caller gets the one stored value, and a failed
// build stores nothing.
func TestCachedConcurrentGet(t *testing.T) {
	c := newCached[int, *int](nil, "test")
	got := make([]*int, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.get(1, func() (*int, error) { return new(int), nil })
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}()
	}
	wg.Wait()
	for i, v := range got {
		if v == nil || v != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p", i, v, got[0])
		}
	}

	fail := errors.New("build failed")
	if _, err := c.get(2, func() (*int, error) { return nil, fail }); !errors.Is(err, fail) {
		t.Fatalf("failed build returned %v", err)
	}
	if v, err := c.get(2, func() (*int, error) { return new(int), nil }); err != nil || v == nil {
		t.Fatalf("rebuild after a failure = %v, %v", v, err)
	}
}

func TestLabCloseIdempotent(t *testing.T) {
	l := mustLab(t, tinyConfig())
	if _, err := l.Profiles(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l.Close() // second close must not panic
}

func TestPointTotalsMatchFullTraceCounts(t *testing.T) {
	l := mustLab(t, tinyConfig())
	for _, iv := range l.cfg.Intervals {
		totals, err := l.pointTotals(iv)
		if err != nil {
			t.Fatal(err)
		}
		for id := range totals {
			src, err := l.World().Trace(id, iv)
			if err != nil {
				t.Fatal(err)
			}
			n, err := trace.Count(src)
			if err != nil {
				t.Fatal(err)
			}
			if totals[id] != n {
				t.Fatalf("user %d iv %v: timestamps-only total %d != full-trace count %d", id, iv, totals[id], n)
			}
		}
	}
}

func TestPointTotalsCachedAndMonotone(t *testing.T) {
	l := mustLab(t, tinyConfig())
	native, err := l.pointTotals(0)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := l.pointTotals(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for i := range native {
		if slow[i] > native[i] {
			t.Fatalf("user %d: slower sampling has more points (%d > %d)", i, slow[i], native[i])
		}
	}
	again, err := l.pointTotals(0)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &native[0] {
		t.Fatal("totals rebuilt instead of cached")
	}
}

func TestMarketStudyHeadlines(t *testing.T) {
	r, err := MarketStudy(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Declaring != 1137 || r.Background != 102 {
		t.Fatalf("market study: declaring=%d background=%d", r.Declaring, r.Background)
	}
}

func TestFigure2TrendsMatchTableIII(t *testing.T) {
	l := mustLab(t, tinyConfig())
	r, err := Figure2(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("%d parameter sets", len(r.Rows))
	}
	// Same radius: PoIs decrease as visiting time increases.
	if !(r.Rows[0].PoIs >= r.Rows[1].PoIs && r.Rows[1].PoIs >= r.Rows[2].PoIs) {
		t.Fatalf("radius 50: counts not decreasing: %+v", r.Rows[:3])
	}
	if !(r.Rows[3].PoIs >= r.Rows[4].PoIs && r.Rows[4].PoIs >= r.Rows[5].PoIs) {
		t.Fatalf("radius 100: counts not decreasing: %+v", r.Rows[3:])
	}
	// Same visiting time: larger radius finds at least roughly as many
	// PoIs (small jitter tolerated: a larger radius can merge stays).
	for i := 0; i < 3; i++ {
		if float64(r.Rows[i+3].PoIs) < 0.9*float64(r.Rows[i].PoIs) {
			t.Fatalf("radius trend violated at visit set %d: %d vs %d", i+1, r.Rows[i+3].PoIs, r.Rows[i].PoIs)
		}
	}
	out := r.Render()
	if !strings.Contains(out, "Table III") || !strings.Contains(out, "set") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestFigure3FrequencyDegradation(t *testing.T) {
	l := mustLab(t, tinyConfig())
	mr, err := MarketStudy(l.cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Figure3(l, mr)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(l.cfg.Intervals) {
		t.Fatalf("%d rows", len(r.Rows))
	}
	native, slow := r.Rows[0], r.Rows[1]
	if native.PoIs <= 0 {
		t.Fatal("no PoIs at native rate")
	}
	if slow.PoIs > native.PoIs {
		t.Fatalf("more PoIs at 10 min interval: %d > %d", slow.PoIs, native.PoIs)
	}
	if native.Fraction < 0.99 {
		t.Fatalf("native fraction %v", native.Fraction)
	}
	// Sensitive exposure is monotone in threshold and bounded by totals.
	for _, row := range r.Rows {
		for i := 0; i < 3; i++ {
			if row.SensitiveDiscovered[i] > row.SensitiveTotal[i] {
				t.Fatalf("discovered > total: %+v", row)
			}
			if i > 0 && row.SensitiveTotal[i] < row.SensitiveTotal[i-1] {
				t.Fatalf("sensitive totals not monotone in threshold: %+v", row)
			}
		}
	}
	if slow.SensitiveDiscovered[2] > native.SensitiveDiscovered[2] {
		t.Fatal("slower access discovered more sensitive PoIs")
	}
	if r.AppsWithAllPoIs <= 0 || r.AppsWithAllPoIs > 1 {
		t.Fatalf("apps-with-all-PoIs fraction = %v", r.AppsWithAllPoIs)
	}
	if out := r.Render(); !strings.Contains(out, "Figure 3(a)") || !strings.Contains(out, "Figure 3(b)") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestFigure4ShapesOnTinyWorld(t *testing.T) {
	l := mustLab(t, tinyConfig())
	r, err := Figure4(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sweep) != len(l.cfg.Intervals) {
		t.Fatalf("%d sweep rows", len(r.Sweep))
	}
	native := r.Sweep[0]
	if native.Detected[core.PatternRegion] == 0 && native.Detected[core.PatternMovement] == 0 {
		t.Fatal("nothing detected at native rate")
	}
	// Detection fractions are valid.
	for _, fr := range r.FromStart[core.PatternMovement] {
		if fr < 0 || fr > 1 {
			t.Fatalf("fraction %v out of range", fr)
		}
	}
	out := r.Render()
	for _, needle := range []string{"Figure 4(a)", "Figure 4(b)", "Figure 4(c)", "Figure 4(d)"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("render missing %s:\n%s", needle, out)
		}
	}
}

func TestFigure5OnTinyWorld(t *testing.T) {
	l := mustLab(t, tinyConfig())
	r, err := Figure5(l)
	if err != nil {
		t.Fatal(err)
	}
	if r.Profiles != l.World().NumUsers() {
		t.Fatalf("adversary has %d profiles", r.Profiles)
	}
	for _, row := range r.Rows {
		if row.P2Leaks+row.P1Leaks+row.Ties != l.World().NumUsers() {
			t.Fatalf("user accounting broken: %+v", row)
		}
		for _, p := range patterns {
			if row.MeanDeg[p] < 0 || row.MeanDeg[p] > 1 {
				t.Fatalf("mean degree out of range: %+v", row)
			}
		}
	}
	if out := r.Render(); !strings.Contains(out, "Figure 5") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestAblationExtractor(t *testing.T) {
	l := mustLab(t, tinyConfig())
	r, err := AblationExtractor(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(l.cfg.Intervals) {
		t.Fatalf("%d rows", len(r.Rows))
	}
	if r.Rows[0].Buffer == 0 || r.Rows[0].StayPoint == 0 {
		t.Fatalf("an extractor found nothing at native rate: %+v", r.Rows[0])
	}
	// The two extractors agree within a factor of two on clean data.
	ratio := float64(r.Rows[0].Buffer) / float64(r.Rows[0].StayPoint)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("extractors disagree wildly: %+v", r.Rows[0])
	}
	if out := r.Render(); !strings.Contains(out, "staypoint") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestAblationMitigation(t *testing.T) {
	l := mustLab(t, tinyConfig())
	r, err := AblationMitigation(l)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationMitigationRow{}
	for _, row := range r.Rows {
		byName[row.Name] = row
	}
	base := byName["none"]
	if base.PoIsDiscovered == 0 || base.Breaches == 0 {
		t.Fatalf("baseline finds nothing: %+v", base)
	}
	if base.PoIsDiscovered != base.PoIsTotal {
		t.Fatalf("unmitigated stream should discover everything: %+v", base)
	}
	// The decoy kills discovery entirely; heavy truncation nearly so (a
	// venue can land within merge radius of a lattice corner by chance,
	// ~2% per place).
	if row := byName["decoy"]; row.PoIsDiscovered != 0 || row.Breaches != 0 {
		t.Fatalf("decoy leaked: %+v", row)
	}
	if row := byName["truncate-2digits"]; float64(row.PoIsDiscovered) > 0.05*float64(row.PoIsTotal) || row.Breaches != 0 {
		t.Fatalf("truncate-2digits leaked: %+v", row)
	}
	// Stronger truncation discovers no more than weaker truncation.
	if byName["truncate-3digits"].PoIsDiscovered > byName["truncate-4digits"].PoIsDiscovered {
		t.Fatalf("truncation not monotone: %+v vs %+v", byName["truncate-3digits"], byName["truncate-4digits"])
	}
	// Suppression protects the sensitive set specifically.
	if s := byName["suppress-sensitive"]; s.SensitiveDiscovered > base.SensitiveDiscovered/4 {
		t.Fatalf("suppression barely helped: %+v vs base %+v", s, base)
	}
	if out := r.Render(); !strings.Contains(out, "defense") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestAblationWeighting(t *testing.T) {
	l := mustLab(t, tinyConfig())
	r, err := AblationWeighting(l)
	if err != nil {
		t.Fatal(err)
	}
	n := l.World().NumUsers()
	if r.PValue.P2Leaks+r.PValue.P1Leaks+r.PValue.Ties != n {
		t.Fatalf("p-value row accounting: %+v", r.PValue)
	}
	if r.ChiSquare.P2Leaks+r.ChiSquare.P1Leaks+r.ChiSquare.Ties != n {
		t.Fatalf("chi-square row accounting: %+v", r.ChiSquare)
	}
	if out := r.Render(); !strings.Contains(out, "chi-square") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestAblationTail(t *testing.T) {
	l := mustLab(t, tinyConfig())
	r, err := AblationTail(l)
	if err != nil {
		t.Fatal(err)
	}
	// The upper tail is the working convention; the literal lower tail
	// rejects perfect fits, so it must never detect more users.
	for _, p := range patterns {
		if r.Lower[p] > r.Upper[p] {
			t.Fatalf("lower tail detected more than upper for %v: %+v", p, r)
		}
	}
	if r.Upper[core.PatternRegion] == 0 {
		t.Fatal("upper tail detected nobody")
	}
	if out := r.Render(); !strings.Contains(out, "tail") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestIntervalLabel(t *testing.T) {
	if intervalLabel(0) != "native(1-5s)" {
		t.Fatal(intervalLabel(0))
	}
	if intervalLabel(time.Minute) != "1m0s" {
		t.Fatal(intervalLabel(time.Minute))
	}
}

func TestAblationCloaking(t *testing.T) {
	l := mustLab(t, tinyConfig())
	r, err := AblationCloaking(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	prevArea := 0.0
	for i, row := range r.Rows {
		if row.PoIsDiscovered > row.PoIsTotal || row.SensitiveDiscovered > row.SensitiveTotal {
			t.Fatalf("accounting broken: %+v", row)
		}
		// Larger k releases larger cells (weaker utility).
		if i > 0 && row.MeanAreaKm2 < prevArea*0.8 {
			t.Fatalf("area not growing with k: %+v", r.Rows)
		}
		prevArea = row.MeanAreaKm2
	}
	// Cloaking at any k destroys fine-grained PoI discovery almost
	// entirely (cells are hundreds of meters to kilometers).
	if r.Rows[0].PoIsDiscovered > r.Rows[0].PoIsTotal/4 {
		t.Fatalf("k=2 cloaking left %d/%d PoIs discoverable", r.Rows[0].PoIsDiscovered, r.Rows[0].PoIsTotal)
	}
	if out := r.Render(); !strings.Contains(out, "k-anonymity") {
		t.Fatalf("render:\n%s", out)
	}
}
