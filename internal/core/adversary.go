package core

import (
	"errors"
	"fmt"

	"locwatch/internal/privlog"
	"locwatch/internal/stats"
)

// Candidate is one profile in the adversary's collection together with
// the outcome of matching observed data against it.
type Candidate struct {
	Index   int
	Matched bool
	Result  stats.GoodnessOfFit
}

// Identification is the outcome of an inference attack: the posterior
// over candidate profiles and the entropy-based anonymity measures of
// Formulas 3–5.
type Identification struct {
	Candidates []Candidate
	// Posterior holds one probability per candidate profile (index
	// aligned with the adversary's profile list). Non-matching profiles
	// have probability zero.
	Posterior []float64
	// Matches is the number of profiles the observed data fits — the
	// anonymity set size.
	Matches int
	// Entropy is H(X) of the posterior in bits (Formula 3).
	Entropy float64
	// MaxEntropy is H(M) = log2(N) over the adversary's N profiles
	// (Formula 4).
	MaxEntropy float64
	// DegAnonymity is Formula 5: H(X)/H(M) in [0, 1]; 0 means the user
	// is fully identified, 1 means the adversary learned nothing.
	DegAnonymity float64
}

// Adversary models the paper's threat: a third party holding profiles
// of N users (bought, scraped, or accumulated from LBS history) that
// matches freshly collected location data against them to identify the
// data's owner.
type Adversary struct {
	profiles []*Profile
	// Each profile's histograms, frozen once by NewAdversary. Identify
	// tests against movement under PatternMovement and against region
	// under any other pattern, Profile.Histogram's fallback.
	region, movement []stats.Frozen
	weighting        Weighting
	alpha            float64
}

// NewAdversary returns an adversary holding the given profiles. All
// profiles must share an anchor and parameters (they come from the same
// pipeline); weighting and alpha are taken from the first profile's
// params. NewAdversary reads each profile's histograms once and keeps
// them frozen, so the profiles must be finalized (built by BuildProfile
// or ProfileBuilder.Profile) and must not be fed afterwards.
func NewAdversary(profiles []*Profile) (*Adversary, error) {
	if len(profiles) == 0 {
		return nil, errors.New("core: adversary needs at least one profile")
	}
	for i, p := range profiles {
		if p == nil {
			return nil, fmt.Errorf("core: nil profile at index %d", i)
		}
		if p.Anchor() != profiles[0].Anchor() {
			// Anchors are home-scale coordinates; the error reports
			// them at scrubbed precision only.
			return nil, fmt.Errorf("core: profile %d anchored at %s, want %s",
				i, privlog.ScrubLatLon(p.Anchor()), privlog.ScrubLatLon(profiles[0].Anchor()))
		}
	}
	a := &Adversary{
		profiles:  profiles,
		region:    make([]stats.Frozen, len(profiles)),
		movement:  make([]stats.Frozen, len(profiles)),
		weighting: profiles[0].Params().Weighting,
		alpha:     profiles[0].Params().Alpha,
	}
	for i, p := range profiles {
		a.region[i] = p.Histogram(PatternRegion).Freeze()
		a.movement[i] = p.Histogram(PatternMovement).Freeze()
	}
	return a, nil
}

// NumProfiles returns the size of the adversary's collection.
func (a *Adversary) NumProfiles() int { return len(a.profiles) }

// Identify matches the observed data against every profile under the
// given pattern and computes the posterior and anonymity degree.
// Profiles that are unusable under the pattern simply never match.
// Each candidate's result is the one its Profile.Compare gives; the
// pattern-1 observation is built once per call, not per candidate.
func (a *Adversary) Identify(observed *Profile, pattern Pattern) (Identification, error) {
	id := Identification{
		Candidates: make([]Candidate, len(a.profiles)),
		Posterior:  make([]float64, len(a.profiles)),
		MaxEntropy: stats.MaxEntropy(len(a.profiles)),
	}
	refs := a.movement
	var region stats.Frozen
	if pattern != PatternMovement {
		refs, region = a.region, observed.regionObservation()
	}
	weights := make([]float64, len(a.profiles))
	for i, prof := range a.profiles {
		c := Candidate{Index: i}
		g, err := prof.compare(refs[i], observed, region, pattern)
		switch {
		case errors.Is(err, ErrNoProfile):
			// Unusable or insufficient data: cannot match.
		case err != nil:
			return Identification{}, fmt.Errorf("core: identify against profile %d: %w", i, err)
		default:
			c.Result = g
			c.Matched = g.Match(a.alpha)
		}
		if c.Matched {
			id.Matches++
			switch a.weighting {
			case WeightChiSquare:
				// Formula 2 verbatim: weight by the statistic itself.
				weights[i] = c.Result.Statistic
			case WeightPValue:
				weights[i] = c.Result.PValue
			default:
				// Unknown weighting: keep the default p-value reading.
				weights[i] = c.Result.PValue
			}
			// A perfect fit has statistic 0 / p-value 1; make sure a
			// perfect chi-square weight of zero still claims mass.
			if a.weighting == WeightChiSquare && weights[i] == 0 {
				weights[i] = 1e-9
			}
		}
		id.Candidates[i] = c
	}
	if id.Matches == 0 {
		// Nothing matched: the adversary learned nothing; posterior is
		// uniform and anonymity is maximal.
		for i := range id.Posterior {
			id.Posterior[i] = 1 / float64(len(a.profiles))
		}
		id.Entropy = id.MaxEntropy
		id.DegAnonymity = degOr(id.Entropy, id.MaxEntropy)
		return id, nil
	}
	id.Posterior = stats.NormalizeWeights(weights)
	id.Entropy = stats.Entropy(id.Posterior)
	id.DegAnonymity = degOr(id.Entropy, id.MaxEntropy)
	return id, nil
}

// degOr normalizes entropy by max entropy, mapping the single-profile
// corner (H(M)=0) to zero anonymity.
func degOr(h, hm float64) float64 {
	if hm == 0 {
		return 0
	}
	d := h / hm
	if d > 1 {
		d = 1
	}
	return d
}
