package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Reference values computed with scipy.special.gammainc / scipy.stats.chi2.
func TestRegularizedGammaPReference(t *testing.T) {
	tests := []struct {
		a, x, want float64
	}{
		{0.5, 0.5, 0.6826894921370859},
		{1, 1, 0.6321205588285577},
		{2.5, 1.0, 0.15085496391539038},
		{5, 5, 0.5595067149347875},
		{10, 3, 0.0011024881301291174},
		{10, 20, 0.9950045876916924},
		// Cross-checked via P(0.5, x) = erf(sqrt(x)): erf(3.16227766)
		// = 0.99999225578 by the erfc asymptotic expansion.
		{0.5, 10, 0.999992255783569},
		{50, 50, 0.5188083154720433},
	}
	for _, tt := range tests {
		got, err := RegularizedGammaP(tt.a, tt.x)
		if err != nil {
			t.Fatalf("P(%v,%v): %v", tt.a, tt.x, err)
		}
		if math.Abs(got-tt.want) > 1e-10 {
			t.Errorf("P(%v, %v) = %.15f, want %.15f", tt.a, tt.x, got, tt.want)
		}
	}
}

func TestRegularizedGammaDomainErrors(t *testing.T) {
	if _, err := RegularizedGammaP(0, 1); err == nil {
		t.Error("P(0, 1) should error")
	}
	if _, err := RegularizedGammaP(-1, 1); err == nil {
		t.Error("P(-1, 1) should error")
	}
	if _, err := RegularizedGammaP(1, -1); err == nil {
		t.Error("P(1, -1) should error")
	}
	if _, err := RegularizedGammaQ(math.NaN(), 1); err == nil {
		t.Error("Q(NaN, 1) should error")
	}
}

func TestGammaPQComplementary(t *testing.T) {
	f := func(aSeed, xSeed float64) bool {
		a := math.Mod(math.Abs(aSeed), 100) + 0.01
		x := math.Mod(math.Abs(xSeed), 200)
		p, err1 := RegularizedGammaP(a, x)
		q, err2 := RegularizedGammaQ(a, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(p+q-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGammaPMonotoneInX(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		a := rng.Float64()*20 + 0.1
		x1 := rng.Float64() * 40
		x2 := x1 + rng.Float64()*10
		p1, err1 := RegularizedGammaP(a, x1)
		p2, err2 := RegularizedGammaP(a, x2)
		if err1 != nil || err2 != nil {
			t.Fatalf("unexpected error: %v %v", err1, err2)
		}
		if p2 < p1-1e-12 {
			t.Fatalf("P not monotone: P(%v,%v)=%v > P(%v,%v)=%v", a, x1, p1, a, x2, p2)
		}
	}
}

// Reference values from scipy.stats.chi2.cdf.
func TestChiSquareCDFReference(t *testing.T) {
	tests := []struct {
		x    float64
		k    int
		want float64
	}{
		{3.841458820694124, 1, 0.95},
		{5.991464547107979, 2, 0.95},
		{7.814727903251179, 3, 0.95},
		{18.307038053275146, 10, 0.95},
		{1.0, 1, 0.6826894921370859},
		{5.0, 5, 0.5841198130044574},
		// Cross-checked against the closed form for k=3:
		// erf(sqrt(x/2)) - sqrt(2/pi)*sqrt(x)*exp(-x/2) = 0.0811086...
		{0.5, 3, 0.081108588345},
	}
	for _, tt := range tests {
		got, err := ChiSquareCDF(tt.x, tt.k)
		if err != nil {
			t.Fatalf("CDF(%v, %d): %v", tt.x, tt.k, err)
		}
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("ChiSquareCDF(%v, %d) = %.12f, want %.12f", tt.x, tt.k, got, tt.want)
		}
	}
}

func TestChiSquareEdges(t *testing.T) {
	if got, err := ChiSquareCDF(0, 3); err != nil || got != 0 {
		t.Errorf("CDF(0, 3) = %v, %v; want 0, nil", got, err)
	}
	if got, err := ChiSquareCDF(-5, 3); err != nil || got != 0 {
		t.Errorf("CDF(-5, 3) = %v, %v; want 0, nil", got, err)
	}
	if got, err := ChiSquareSurvival(0, 3); err != nil || got != 1 {
		t.Errorf("Survival(0, 3) = %v, %v; want 1, nil", got, err)
	}
	if _, err := ChiSquareCDF(1, 0); err == nil {
		t.Error("CDF with k=0 should error")
	}
	if _, err := ChiSquareSurvival(1, -1); err == nil {
		t.Error("Survival with k=-1 should error")
	}
}

func TestChiSquareSurvivalAtCriticalValues(t *testing.T) {
	// The standard alpha=0.05 critical values every textbook tabulates,
	// to three decimals: the upper tail beyond each is 0.05 to within
	// the density times the rounding.
	tests := []struct {
		k        int
		critical float64
	}{
		{1, 3.841}, {2, 5.991}, {3, 7.815}, {5, 11.070}, {10, 18.307},
	}
	for _, tt := range tests {
		got, err := ChiSquareSurvival(tt.critical, tt.k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-0.05) > 1e-4 {
			t.Errorf("Survival(%.3f, %d) = %.6f, want 0.05", tt.critical, tt.k, got)
		}
	}
}

func BenchmarkChiSquareSurvival(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ChiSquareSurvival(12.3, 9); err != nil {
			b.Fatal(err)
		}
	}
}
