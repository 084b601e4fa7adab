package core

import (
	"errors"
	"math"
	"strconv"
	"testing"

	"locwatch/internal/geo"
	"locwatch/internal/privlog"
	"locwatch/internal/stats"
	"locwatch/internal/trace"
)

// population builds n users with partially overlapping venue sets:
// consecutive users share their work district, so profiles overlap but
// are not identical.
func population(t testing.TB, n int) []*Profile {
	t.Helper()
	profiles := make([]*Profile, n)
	for i := 0; i < n; i++ {
		home := at(float64(i*37%360), 2000+float64(i%5)*800)
		work := at(float64((i/2)*80%360), 5000) // pairs share a workplace
		leisure := at(float64(i*61%360), 3500)
		profiles[i] = mustProfile(t, commuteTrace(100+int64(i), 8, home, work, leisure))
	}
	return profiles
}

// TestNewAdversaryValidation also searches every error for the
// anchors that went in: the commands log these errors, so none may
// carry a raw coordinate.
func TestNewAdversaryValidation(t *testing.T) {
	var errs []error
	reject := func(what string, profiles []*Profile) {
		t.Helper()
		_, err := NewAdversary(profiles)
		if err == nil {
			t.Fatalf("%s accepted", what)
		}
		errs = append(errs, err)
	}
	reject("empty adversary", nil)
	reject("nil profile", []*Profile{nil})
	a := mustProfile(t, nil)
	inputs := []geo.LatLon{anchor}
	for _, other := range []geo.LatLon{{Lat: 1, Lon: 1}, {Lat: 39.912345678, Lon: 116.312345678}} {
		b, err := BuildProfile(trace.NewSliceSource(nil), other, Params{})
		if err != nil {
			t.Fatal(err)
		}
		reject("mismatched anchors", []*Profile{a, b})
		reject("mismatched anchors", []*Profile{b, a})
		inputs = append(inputs, other)
	}
	for _, err := range errs {
		for _, hit := range privlog.FindLeaks([]byte(err.Error()), inputs) {
			t.Errorf("error %q leaks an anchor: %s", err, hit)
		}
	}
}

func TestAdversaryIdentifiesOwner(t *testing.T) {
	profiles := population(t, 6)
	adv, err := NewAdversary(profiles)
	if err != nil {
		t.Fatal(err)
	}
	if adv.NumProfiles() != 6 {
		t.Fatalf("NumProfiles = %d", adv.NumProfiles())
	}
	for _, pattern := range []Pattern{PatternRegion, PatternMovement} {
		id, err := adv.Identify(profiles[0], pattern)
		if err != nil {
			t.Fatal(err)
		}
		if !id.Candidates[0].Matched {
			t.Fatalf("%v: owner's own profile did not match", pattern)
		}
		// The owner must get the largest posterior mass.
		best := 0
		for i, p := range id.Posterior {
			if p > id.Posterior[best] {
				best = i
			}
		}
		if best != 0 {
			t.Fatalf("%v: posterior peaks at profile %d, want 0 (posterior %v)", pattern, best, id.Posterior)
		}
		if id.DegAnonymity < 0 || id.DegAnonymity > 1 {
			t.Fatalf("%v: DegAnonymity = %v", pattern, id.DegAnonymity)
		}
		// Identification happened, so anonymity cannot be maximal.
		if id.DegAnonymity > 0.99 {
			t.Fatalf("%v: identification left anonymity at %v", pattern, id.DegAnonymity)
		}
	}
}

func TestAdversarySingleMatchZeroAnonymity(t *testing.T) {
	profiles := population(t, 5)
	adv, err := NewAdversary(profiles)
	if err != nil {
		t.Fatal(err)
	}
	// Movement patterns are nearly unique across this population: if
	// exactly one profile matches, the degree of anonymity is zero.
	id, err := adv.Identify(profiles[2], PatternMovement)
	if err != nil {
		t.Fatal(err)
	}
	if id.Matches == 1 && id.DegAnonymity != 0 {
		t.Fatalf("single match but DegAnonymity = %v", id.DegAnonymity)
	}
}

func TestAdversaryNoMatchMaxAnonymity(t *testing.T) {
	profiles := population(t, 4)
	adv, err := NewAdversary(profiles)
	if err != nil {
		t.Fatal(err)
	}
	// A stranger from an unrelated district matches nobody.
	stranger := mustProfile(t, commuteTrace(999, 8, at(10, 9500), at(95, 9000), at(200, 9700)))
	for _, pattern := range []Pattern{PatternRegion, PatternMovement} {
		id, err := adv.Identify(stranger, pattern)
		if err != nil {
			t.Fatal(err)
		}
		if id.Matches != 0 {
			continue // some overlap is possible; the zero-match path is tested below when it occurs
		}
		if math.Abs(id.DegAnonymity-1) > 1e-9 {
			t.Fatalf("%v: no matches but DegAnonymity = %v", pattern, id.DegAnonymity)
		}
		if math.Abs(id.Entropy-id.MaxEntropy) > 1e-9 {
			t.Fatalf("%v: no matches but entropy %v != max %v", pattern, id.Entropy, id.MaxEntropy)
		}
		for _, p := range id.Posterior {
			if math.Abs(p-0.25) > 1e-9 {
				t.Fatalf("%v: posterior not uniform: %v", pattern, id.Posterior)
			}
		}
	}
}

func TestAdversaryPosteriorSumsToOne(t *testing.T) {
	profiles := population(t, 8)
	adv, err := NewAdversary(profiles)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < len(profiles); u++ {
		for _, pattern := range []Pattern{PatternRegion, PatternMovement} {
			id, err := adv.Identify(profiles[u], pattern)
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, p := range id.Posterior {
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("user %d %v: posterior sums to %v", u, pattern, sum)
			}
		}
	}
}

func TestAdversaryChiSquareWeighting(t *testing.T) {
	// The literal Formula 2 weighting still produces a valid posterior.
	params := DefaultParams()
	params.Weighting = WeightChiSquare
	var profiles []*Profile
	for i := 0; i < 4; i++ {
		home := at(float64(i*90), 2500)
		work := at(float64(i*90+45), 6000)
		leisure := at(float64(i*90+20), 4000)
		p, err := BuildProfile(trace.NewSliceSource(commuteTrace(200+int64(i), 8, home, work, leisure)), anchor, params)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	adv, err := NewAdversary(profiles)
	if err != nil {
		t.Fatal(err)
	}
	id, err := adv.Identify(profiles[1], PatternRegion)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range id.Posterior {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("chi-square weighting posterior sums to %v", sum)
	}
	if !id.Candidates[1].Matched {
		t.Fatal("owner did not match under chi-square weighting")
	}
}

func TestAdversaryThinObservationNeverMatches(t *testing.T) {
	profiles := population(t, 3)
	adv, err := NewAdversary(profiles)
	if err != nil {
		t.Fatal(err)
	}
	thin := mustProfile(t, nil)
	id, err := adv.Identify(thin, PatternMovement)
	if err != nil {
		t.Fatal(err)
	}
	if id.Matches != 0 {
		t.Fatalf("empty observation matched %d profiles", id.Matches)
	}
}

// observations returns a thin observation of user 0 of population,
// below both evidence minimums, and a thick one of eight fresh days of
// the same routine, above both.
func observations(t testing.TB) (thin, thick *Profile) {
	t.Helper()
	home, work, leisure := at(0, 2000), at(0, 5000), at(0, 3500)
	thin = mustProfile(t, commuteTrace(900, 8, home, work, leisure)[:50])
	thick = mustProfile(t, commuteTrace(901, 8, home, work, leisure))
	return thin, thick
}

func TestIdentifyAgreesWithCompare(t *testing.T) {
	// Every candidate's outcome in Identify is its own Compare's, under
	// both patterns and an out-of-range one (which falls back to
	// pattern 1), for an observation below the evidence minimums and
	// one above them. The empty last candidate is unusable.
	profiles := append(population(t, 6), mustProfile(t, nil))
	adv, err := NewAdversary(profiles)
	if err != nil {
		t.Fatal(err)
	}
	alpha := profiles[0].Params().Alpha
	thin, thick := observations(t)
	for _, obs := range []struct {
		name     string
		p        *Profile
		wantTest bool // some candidate yields a test result
	}{{"thin", thin, false}, {"thick", thick, true}} {
		for _, pattern := range []Pattern{PatternRegion, PatternMovement, Pattern(7)} {
			id, err := adv.Identify(obs.p, pattern)
			if err != nil {
				t.Fatalf("%s %v: %v", obs.name, pattern, err)
			}
			tested := false
			for i, prof := range profiles {
				c := id.Candidates[i]
				g, err := prof.Compare(obs.p, pattern)
				if err != nil && !errors.Is(err, ErrNoProfile) {
					t.Fatalf("%s %v candidate %d: Compare: %v", obs.name, pattern, i, err)
				}
				if c.Result != g {
					t.Fatalf("%s %v candidate %d: Identify result %+v, Compare %+v", obs.name, pattern, i, c.Result, g)
				}
				if want := err == nil && g.Match(alpha); c.Matched != want {
					t.Fatalf("%s %v candidate %d: Matched = %v, Compare gives %v (err %v)", obs.name, pattern, i, c.Matched, want, err)
				}
				tested = tested || err == nil
			}
			if tested != obs.wantTest {
				t.Fatalf("%s %v: some candidate tested = %v, want %v", obs.name, pattern, tested, obs.wantTest)
			}
		}
	}
}

func TestCompareDegenerateIsNoProfile(t *testing.T) {
	// A reference with 60 equal regions has every category below the 2%
	// pooling share, so the test pools to one category and is
	// degenerate: Compare reports it as both errors.
	ref := mustProfile(t, commuteTrace(40, 2, anchor, at(60, 4000), at(150, 2500)))
	ref.regionHist = stats.NewHistogram()
	for i := 0; i < 60; i++ {
		ref.regionHist.Add("r"+strconv.Itoa(i), 10)
	}
	_, thick := observations(t)
	_, err := ref.Compare(thick, PatternRegion)
	if !errors.Is(err, ErrNoProfile) || !errors.Is(err, stats.ErrDegenerate) {
		t.Fatalf("Compare against an all-pooled reference: %v, want ErrNoProfile and stats.ErrDegenerate", err)
	}
}

// identifySink keeps BenchmarkIdentify's result live.
var identifySink Identification

// BenchmarkIdentify scores one observation against 182 candidates, the
// size of locwatchd's reference set, under both patterns: thin is below
// the evidence minimums (every candidate stops at the gate), thick is
// above them (every usable candidate runs a chi-square test).
func BenchmarkIdentify(b *testing.B) {
	adv, err := NewAdversary(population(b, 182))
	if err != nil {
		b.Fatal(err)
	}
	thin, thick := observations(b)
	for _, obs := range []struct {
		name string
		p    *Profile
	}{{"thin", thin}, {"thick", thick}} {
		for _, pattern := range []Pattern{PatternRegion, PatternMovement} {
			b.Run(obs.name+"/"+pattern.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					id, err := adv.Identify(obs.p, pattern)
					if err != nil {
						b.Fatal(err)
					}
					identifySink = id
				}
			})
		}
	}
}
