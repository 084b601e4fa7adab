// Package stats implements the statistical machinery the privacy model
// depends on: the chi-square distribution (via the regularized
// incomplete gamma function), Pearson's goodness-of-fit test, Shannon
// entropy and the degree of anonymity, count histograms, and empirical
// CDFs.
//
// Everything is implemented on top of the standard library; the special
// functions follow the classic series/continued-fraction evaluation
// (Numerical Recipes §6.2) and are validated in the tests against
// reference values from R and scipy.
package stats

import (
	"errors"
	"math"
)

// ErrInvalidParameter is returned by the special functions when called
// outside their domain (e.g. non-positive shape).
var ErrInvalidParameter = errors.New("stats: invalid parameter")

const (
	gammaEps   = 3e-14
	gammaItMax = 500
	gammaFPMin = 1e-300
)

// RegularizedGammaP computes the regularized lower incomplete gamma
// function P(a, x) = γ(a, x) / Γ(a) for a > 0, x ≥ 0.
func RegularizedGammaP(a, x float64) (float64, error) {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return 0, ErrInvalidParameter
	}
	if x == 0 {
		return 0, nil
	}
	if x < a+1 {
		// Series representation converges quickly here.
		return gammaSeries(a, x)
	}
	// Continued fraction for Q, then P = 1 - Q.
	q, err := gammaContinuedFractionQ(a, x)
	if err != nil {
		return 0, err
	}
	return 1 - q, nil
}

// RegularizedGammaQ computes the regularized upper incomplete gamma
// function Q(a, x) = 1 − P(a, x).
func RegularizedGammaQ(a, x float64) (float64, error) {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return 0, ErrInvalidParameter
	}
	if x == 0 {
		return 1, nil
	}
	if x < a+1 {
		p, err := gammaSeries(a, x)
		if err != nil {
			return 0, err
		}
		return 1 - p, nil
	}
	return gammaContinuedFractionQ(a, x)
}

// gammaSeries evaluates P(a, x) by its power series (valid for x < a+1).
func gammaSeries(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for n := 0; n < gammaItMax; n++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			return sum * math.Exp(-x+a*math.Log(x)-lg), nil
		}
	}
	return 0, errors.New("stats: gamma series did not converge")
}

// gammaContinuedFractionQ evaluates Q(a, x) by the modified Lentz
// continued fraction (valid for x ≥ a+1).
func gammaContinuedFractionQ(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / gammaFPMin
	d := 1 / b
	h := d
	for i := 1; i <= gammaItMax; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < gammaFPMin {
			d = gammaFPMin
		}
		c = b + an/c
		if math.Abs(c) < gammaFPMin {
			c = gammaFPMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			return math.Exp(-x+a*math.Log(x)-lg) * h, nil
		}
	}
	return 0, errors.New("stats: gamma continued fraction did not converge")
}

// ChiSquareCDF returns P(X ≤ x) for a chi-square distribution with k
// degrees of freedom.
func ChiSquareCDF(x float64, k int) (float64, error) {
	if k <= 0 {
		return 0, ErrInvalidParameter
	}
	if x <= 0 {
		return 0, nil
	}
	return RegularizedGammaP(float64(k)/2, x/2)
}

// ChiSquareSurvival returns the upper-tail probability P(X > x) for a
// chi-square distribution with k degrees of freedom.
func ChiSquareSurvival(x float64, k int) (float64, error) {
	if k <= 0 {
		return 0, ErrInvalidParameter
	}
	if x <= 0 {
		return 1, nil
	}
	return RegularizedGammaQ(float64(k)/2, x/2)
}
