// Package locwatch is a Go reproduction of "Location Privacy Breach:
// Apps Are Watching You in Background" (Liu, Gao, Wang — ICDCS 2017).
//
// It bundles:
//
//   - a geodesy and location-trace toolkit (streaming sources, GeoLife
//     PLT codec, samplers modelling background-access intervals);
//   - the Spatio-Temporal PoI extractor the paper adopts, plus the
//     classic stay-point baseline and place canonicalization;
//   - the paper's privacy model: user profiles under pattern 1
//     ⟨region, visited times⟩ and pattern 2 ⟨movement PoI_i→PoI_j,
//     happen times⟩, the His_bin chi-square breach detector, the
//     PoI_total / PoI_sensitive exposure metrics, and the entropy-based
//     degree-of-anonymity adversary (Formulas 2–5);
//   - simulated substrates standing in for what the paper measured on
//     hardware: an Android location stack (providers, permissions,
//     lifecycle, dumpsys) and a synthetic Google Play market calibrated
//     to the paper's §III statistics;
//   - a GeoLife-scale mobility simulator (182 users, habitual
//     routines, a shared campus) substituting for the GeoLife dataset;
//   - location-privacy defenses (truncation, coarsening, suppression,
//     decoys, rate limiting) as composable stream transforms; and
//   - one experiment driver per table and figure of the paper.
//
// This package is the stable facade: it re-exports the types and
// constructors a downstream user needs. The implementation lives under
// internal/; see DESIGN.md for the system inventory and EXPERIMENTS.md
// for paper-vs-measured results.
package locwatch

import (
	"io"
	"time"

	"locwatch/internal/android"
	"locwatch/internal/anonymize"
	"locwatch/internal/confusion"
	"locwatch/internal/core"
	"locwatch/internal/experiments"
	"locwatch/internal/geo"
	"locwatch/internal/market"
	"locwatch/internal/mitigation"
	"locwatch/internal/mobility"
	"locwatch/internal/poi"
	"locwatch/internal/privlog"
	"locwatch/internal/stats"
	"locwatch/internal/trace"
	"locwatch/internal/trace/plt"
)

// Geodesy.
type (
	// LatLon is a geographic coordinate in decimal degrees.
	LatLon = geo.LatLon
	// Projection is a local tangent-plane projection.
	Projection = geo.Projection
)

// Distance returns the great-circle distance in meters.
func Distance(p, q LatLon) float64 { return geo.Distance(p, q) }

// Destination travels dist meters from p along a bearing.
func Destination(p LatLon, bearingDeg, dist float64) LatLon {
	return geo.Destination(p, bearingDeg, dist)
}

// NewProjection anchors a local projection at origin.
func NewProjection(origin LatLon) *Projection { return geo.NewProjection(origin) }

// ScrubLatLon renders p at privacy-safe precision (~1.1 km
// quantization, marked with ≈) for logs and error messages.
func ScrubLatLon(p LatLon) string { return privlog.ScrubLatLon(p) }

// NewPrivacyLogger returns a categorized logger whose formatting
// arguments pass through the privlog scrubber, so coordinates,
// fixes and bounding boxes never reach the log at full precision.
func NewPrivacyLogger(component string, w io.Writer) *privlog.Logger {
	return privlog.NewLogger(component, w)
}

// Traces.
type (
	// Point is a timestamped GPS fix.
	Point = trace.Point
	// Trace is an in-memory point sequence.
	Trace = trace.Trace
	// Source is a pull-based point stream.
	Source = trace.Source
	// Sampler releases at most one point per interval — an app's
	// background-access view of a trace.
	Sampler = trace.Sampler
)

// NewSliceSource streams an in-memory point slice.
func NewSliceSource(pts []Point) Source { return trace.NewSliceSource(pts) }

// NewSampler models an app observing src at the given interval.
func NewSampler(src Source, interval, phase time.Duration) *Sampler {
	return trace.NewSampler(src, interval, phase)
}

// Collect drains a source (small streams only).
func Collect(src Source, limit int) (*Trace, error) { return trace.Collect(src, limit) }

// ReadPLT reads a GeoLife PLT file.
func ReadPLT(path string) (*Trace, error) { return plt.ReadFile(path) }

// WritePLT writes points in GeoLife PLT format.
func WritePLT(path string, pts []Point) error { return plt.WriteFile(path, pts) }

// PoI extraction.
type (
	// StayPoint is one extracted PoI visit.
	StayPoint = poi.StayPoint
	// PoIParams configures extraction (paper Table III).
	PoIParams = poi.Params
	// Place is a canonical PoI with visit counts.
	Place = poi.Place
	// Canonicalizer merges stays into places.
	Canonicalizer = poi.Canonicalizer
)

// DefaultPoIParams returns the paper's operating point (50 m, 10 min).
func DefaultPoIParams() PoIParams { return poi.DefaultParams() }

// ExtractPoIs runs the Spatio-Temporal buffer extractor over a stream.
func ExtractPoIs(src Source, params PoIParams) ([]StayPoint, error) {
	return poi.Extract(src, params)
}

// NewCanonicalizer merges stays within mergeRadius meters into places.
func NewCanonicalizer(origin LatLon, mergeRadius float64) (*Canonicalizer, error) {
	return poi.NewCanonicalizer(origin, mergeRadius)
}

// Privacy model (the paper's contribution).
type (
	// Profile is a user's location profile under both patterns.
	Profile = core.Profile
	// ProfileBuilder builds a Profile incrementally.
	ProfileBuilder = core.ProfileBuilder
	// Params configures the privacy model.
	Params = core.Params
	// Pattern selects the profile representation.
	Pattern = core.Pattern
	// Detector is the streaming His_bin breach monitor.
	Detector = core.Detector
	// CombinedDetector raises on whichever pattern fires first.
	CombinedDetector = core.CombinedDetector
	// Detection is a breach-check outcome.
	Detection = core.Detection
	// Adversary matches collected data against candidate profiles.
	Adversary = core.Adversary
	// Identification is an inference-attack outcome (Formulas 2–5).
	Identification = core.Identification
)

// The paper's two profile representations.
const (
	// PatternRegion is pattern 1: ⟨region, visited times⟩.
	PatternRegion = core.PatternRegion
	// PatternMovement is pattern 2: ⟨movement PoI_i→PoI_j, times⟩.
	PatternMovement = core.PatternMovement
)

// DefaultParams returns the paper's operating point for the privacy
// model.
func DefaultParams() Params { return core.DefaultParams() }

// BuildProfile distills a stream into a Profile.
func BuildProfile(src Source, anchor LatLon, params Params) (*Profile, error) {
	return core.BuildProfile(src, anchor, params)
}

// NewProfileBuilder returns an incremental profile builder.
func NewProfileBuilder(anchor LatLon, params Params) (*ProfileBuilder, error) {
	return core.NewProfileBuilder(anchor, params)
}

// NewDetector monitors collected data against a reference profile.
func NewDetector(reference *Profile, pattern Pattern) (*Detector, error) {
	return core.NewDetector(reference, pattern)
}

// NewCombinedDetector monitors under both patterns at once — the
// paper's concluding recommendation.
func NewCombinedDetector(reference *Profile) (*CombinedDetector, error) {
	return core.NewCombinedDetector(reference)
}

// NewAdversary holds candidate profiles for identification attacks.
// It reads each candidate's histograms once, so candidates must be
// finalized (built by BuildProfile or ProfileBuilder.Profile) and must
// not be fed afterwards.
func NewAdversary(profiles []*Profile) (*Adversary, error) {
	return core.NewAdversary(profiles)
}

// Entropy returns Shannon entropy in bits (Formula 3).
func Entropy(probs []float64) float64 { return stats.Entropy(probs) }

// DegreeOfAnonymity normalizes posterior entropy (Formula 5).
func DegreeOfAnonymity(probs []float64, n int) float64 {
	return stats.DegreeOfAnonymity(probs, n)
}

// Mobility simulation (the GeoLife substitute).
type (
	// MobilityConfig parameterizes the synthetic city and population.
	MobilityConfig = mobility.Config
	// World is a generated city and population.
	World = mobility.World
	// MobilityUser is one simulated user's specification.
	MobilityUser = mobility.User
)

// DefaultMobilityConfig returns the GeoLife-scale default (182 users).
func DefaultMobilityConfig() MobilityConfig { return mobility.DefaultConfig() }

// NewWorld generates a world deterministically from cfg.Seed.
func NewWorld(cfg MobilityConfig) (*World, error) { return mobility.New(cfg) }

// Android & market substrates.
type (
	// Device is a simulated handset.
	Device = android.Device
	// AppSpec is an installable app.
	AppSpec = android.AppSpec
	// AppBehavior is what an app does with location at runtime.
	AppBehavior = android.Behavior
	// Provider is an Android location provider.
	Provider = android.Provider
	// Market is the synthetic app market.
	Market = market.Market
	// MarketCampaign drives the §III measurement protocol.
	MarketCampaign = market.Campaign
	// MarketReport aggregates campaign observations.
	MarketReport = market.Report
)

// Android providers.
const (
	ProviderGPS     = android.GPS
	ProviderNetwork = android.Network
	ProviderPassive = android.Passive
	ProviderFused   = android.Fused
)

// NewDevice returns a device whose owner stands at pos.
func NewDevice(start time.Time, pos LatLon) *Device { return android.NewDevice(start, pos) }

// GenerateMarket builds the 2,800-app synthetic market.
func GenerateMarket(seed int64) (*Market, error) { return market.Generate(seed) }

// Defenses.

// TruncateStream applies coordinate truncation (Micinski et al.).
func TruncateStream(src Source, digits int) Source {
	return mitigation.Stream(src, mitigation.NewTruncate(digits))
}

// CoarsenStream snaps fixes to a grid (LP-Guardian style).
func CoarsenStream(src Source, anchor LatLon, cell float64) (Source, error) {
	c, err := mitigation.NewCoarsen(anchor, cell)
	if err != nil {
		return nil, err
	}
	return mitigation.Stream(src, c), nil
}

// SuppressStream drops fixes near protected places.
func SuppressStream(src Source, centers []LatLon, radius float64) (Source, error) {
	s, err := mitigation.NewSuppress(centers, radius)
	if err != nil {
		return nil, err
	}
	return mitigation.Stream(src, s), nil
}

// DecoyStream releases a fixed fake location (MockDroid/TISSA style).
func DecoyStream(src Source, pos LatLon) Source {
	return mitigation.Stream(src, mitigation.NewDecoy(pos))
}

// RateLimitStream enforces a minimum interval between released fixes.
func RateLimitStream(src Source, min time.Duration) (Source, error) {
	r, err := mitigation.NewRateLimit(min)
	if err != nil {
		return nil, err
	}
	return mitigation.Stream(src, r), nil
}

// Trusted-server baselines & tracking metrics.
type (
	// Cloaker performs adaptive quadtree k-anonymity cloaking.
	Cloaker = anonymize.Cloaker
	// AlignedPositions is a population snapshot matrix.
	AlignedPositions = anonymize.AlignedPositions
	// ConfusionParams configures the tracking adversary.
	ConfusionParams = confusion.Params
	// ConfusionResult summarizes one user's trackability.
	ConfusionResult = confusion.Result
)

// NewCloaker covers ±halfSize meters around anchor with k-anonymous
// quadtree cells.
func NewCloaker(anchor LatLon, halfSize float64, k int, minCell float64) (*Cloaker, error) {
	return anonymize.NewCloaker(anchor, halfSize, k, minCell)
}

// AlignPositions samples sources on a shared time grid.
func AlignPositions(sources []Source, start, end time.Time, interval time.Duration) (*AlignedPositions, error) {
	return anonymize.Align(sources, start, end, interval)
}

// TimeToConfusion runs Hoh et al.'s tracking adversary against one
// user of an aligned population.
func TimeToConfusion(a *AlignedPositions, who int, params ConfusionParams) (ConfusionResult, error) {
	return confusion.TimeToConfusion(a, who, params)
}

// Experiments.
type (
	// ExperimentConfig parameterizes the evaluation harness.
	ExperimentConfig = experiments.Config
	// Lab owns shared experiment inputs (world, profiles).
	Lab = experiments.Lab
)

// DefaultExperimentConfig is the paper-scale evaluation configuration.
func DefaultExperimentConfig() ExperimentConfig { return experiments.Default() }

// QuickExperimentConfig is a reduced configuration for smoke runs.
func QuickExperimentConfig() ExperimentConfig { return experiments.Quick() }

// NewLab builds the shared experiment inputs.
func NewLab(cfg ExperimentConfig) (*Lab, error) { return experiments.NewLab(cfg) }
