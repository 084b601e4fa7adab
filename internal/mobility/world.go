// Package mobility is the synthetic substitute for the GeoLife dataset
// the paper evaluates on (182 users, 17,621 trajectories, 1–5 s GPS
// sampling around Beijing). It simulates a city with a shared venue
// pool and a population of users with habitual daily routines, and
// streams per-user GPS traces deterministically from a seed.
//
// The simulator controls exactly the properties the paper's evaluation
// depends on:
//
//   - stay points of varying dwell time at identifiable venues, so the
//     Spatio-Temporal extractor has ground truth to find;
//   - per-user habitual movement *order* (morning and evening routines),
//     so the pattern-2 ⟨movement, count⟩ histogram carries signal the
//     pattern-1 ⟨region, visits⟩ histogram does not;
//   - rarely visited venues (1–3 visits), the PoI_sensitive ground truth;
//   - a shared venue pool, so different users' profiles overlap and the
//     adversary's anonymity-set experiments are non-trivial; and
//   - heterogeneous recording behaviour (continuous, trips-only, sparse),
//     reproducing the GeoLife reality that a large minority of users
//     yield too little dwell data for any PoI to be extracted.
package mobility

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"locwatch/internal/geo"
	"locwatch/internal/obs"
)

// Metrics optionally counts world activity; the zero value disables
// it and nil counters no-op. Counters are observe-only: they never
// touch the seeded RNG streams or the emitted fixes, so enabling them
// cannot change a trace (DESIGN.md §8).
type Metrics struct {
	// PlanBuilds counts leg-plan cache misses (actual day builds).
	PlanBuilds *obs.Counter
	// PlanHits counts leg-plan cache hits.
	PlanHits *obs.Counter
	// Fixes counts GPS fixes emitted across all trace sources,
	// including timestamps-only streams.
	Fixes *obs.Counter
}

// VenueKind classifies venues in the city pool.
type VenueKind int

// Venue kinds. Residential venues host homes; Office venues host
// workplaces; Food/Leisure/Shop venues fill routines; Rare venues
// (clinics, government offices…) are the sensitive-PoI ground truth.
const (
	Residential VenueKind = iota
	Office
	Food
	Leisure
	Shop
	Rare
	numVenueKinds
)

// String implements fmt.Stringer.
func (k VenueKind) String() string {
	switch k {
	case Residential:
		return "residential"
	case Office:
		return "office"
	case Food:
		return "food"
	case Leisure:
		return "leisure"
	case Shop:
		return "shop"
	case Rare:
		return "rare"
	default:
		return fmt.Sprintf("VenueKind(%d)", int(k))
	}
}

// Venue is one place in the shared city pool.
type Venue struct {
	ID   int
	Kind VenueKind
	Pos  geo.LatLon
}

// RecordingMode models how a user's device records, mirroring the
// heterogeneity of GeoLife: some users log continuously, some only log
// trips (navigation-style usage, which yields almost no dwell fixes),
// and some log sporadically.
type RecordingMode int

// Recording modes.
const (
	// RecordContinuous logs the whole waking day.
	RecordContinuous RecordingMode = iota
	// RecordTripsOnly logs only while moving plus a two-minute fringe
	// around each trip: almost no dwell data, so PoI extraction starves.
	RecordTripsOnly
	// RecordSparse logs each day segment with only 35% probability.
	RecordSparse
)

// String implements fmt.Stringer.
func (m RecordingMode) String() string {
	switch m {
	case RecordContinuous:
		return "continuous"
	case RecordTripsOnly:
		return "trips-only"
	case RecordSparse:
		return "sparse"
	default:
		return fmt.Sprintf("RecordingMode(%d)", int(m))
	}
}

// Config parameterizes the world. The zero value is not valid; use
// DefaultConfig as a starting point.
type Config struct {
	Seed  int64
	Users int // population size; the paper's dataset has 182
	Days  int // simulated days per user

	Start      time.Time  // first simulated midnight (UTC)
	CityCenter geo.LatLon // city anchor
	CityRadius float64    // meters; venues are placed within this radius
	Venues     int        // size of the shared venue pool

	NoiseSigma float64 // GPS noise standard deviation in meters

	// Fractions of the population per recording mode; must sum to ≤ 1,
	// the remainder is continuous.
	FracTripsOnly float64
	FracSparse    float64

	// FracCampus is the fraction of users affiliated with the city's
	// campus: they live in its dorm cluster, work in its offices and
	// eat in its shared canteens. GeoLife was collected largely from
	// one research campus, and this shared-infrastructure population is
	// what makes coarse region profiles (pattern 1) collide across
	// users while PoI-level movement patterns (pattern 2) stay unique.
	FracCampus float64
	// CampusRadius is the dorm/office scatter radius in meters.
	CampusRadius float64
}

// DefaultConfig returns a GeoLife-scale configuration: 182 users, 14
// days, a 10 km city with 400 shared venues, 5 m GPS noise, and the
// recording-mode mix calibrated so roughly 55–65% of users produce
// enough dwell data for profile construction (the paper detects risks
// for 107 of 182 users at the highest access frequency).
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		Users:         182,
		Days:          14,
		Start:         time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC),
		CityCenter:    geo.LatLon{Lat: 39.9042, Lon: 116.4074},
		CityRadius:    10000,
		Venues:        400,
		NoiseSigma:    5,
		FracTripsOnly: 0.25,
		FracSparse:    0.18,
		FracCampus:    0.60,
		CampusRadius:  600,
	}
}

func (c Config) validate() error {
	switch {
	case c.Users <= 0:
		return fmt.Errorf("mobility: users must be positive, got %d", c.Users)
	case c.Days <= 0:
		return fmt.Errorf("mobility: days must be positive, got %d", c.Days)
	case c.CityRadius <= 0:
		return fmt.Errorf("mobility: city radius must be positive, got %v", c.CityRadius)
	case c.Venues < 20:
		return fmt.Errorf("mobility: need at least 20 venues, got %d", c.Venues)
	case c.NoiseSigma < 0:
		return fmt.Errorf("mobility: negative noise sigma %v", c.NoiseSigma)
	case c.FracTripsOnly < 0 || c.FracSparse < 0 || c.FracTripsOnly+c.FracSparse > 1:
		return fmt.Errorf("mobility: bad recording-mode fractions %v + %v", c.FracTripsOnly, c.FracSparse)
	case c.FracCampus < 0 || c.FracCampus > 1:
		return fmt.Errorf("mobility: bad campus fraction %v", c.FracCampus)
	case c.FracCampus > 0 && c.CampusRadius <= 0:
		return fmt.Errorf("mobility: campus radius must be positive, got %v", c.CampusRadius)
	case c.Start.IsZero():
		return fmt.Errorf("mobility: zero start time")
	}
	return nil
}

// routineStop is one habitual stop in a user's morning or evening
// routine, with its typical dwell.
type routineStop struct {
	venue Venue
	dwell time.Duration
}

// rareVisit schedules one visit to a rarely visited venue.
type rareVisit struct {
	day     int
	venue   Venue
	dwell   time.Duration
	evening bool
}

// User is the generated specification of one simulated user.
type User struct {
	ID   int
	Mode RecordingMode
	// IsCampus marks users living and working on the shared campus.
	IsCampus bool

	Home Venue
	Work Venue

	// Habitual structure. MorningRoutine runs between home and work on
	// gym/cafe days; EveningRoutine runs between work and home. The
	// *order* of the stops is fixed per user — this is the movement
	// pattern the paper's pattern-2 metric exploits.
	MorningRoutine []routineStop
	EveningRoutine []routineStop
	LunchSpots     []Venue

	// rareVisits are the scheduled visits to sensitive venues.
	rareVisits []rareVisit

	// Behaviour knobs (deterministic per user).
	seed         int64
	wakeMinute   int     // minutes after midnight
	workStartMin int     // minutes after midnight
	workEndMin   int     // minutes after midnight
	sleepMinute  int     // minutes after midnight
	lunchProb    float64 // probability of a lunch excursion per workday
	morningProb  float64 // probability the morning routine runs
	eveningProb  float64 // probability the evening routine runs
	weekendTrips int     // leisure trips per weekend day
	weekendWork  bool    // campus users often work weekends
	walkSpeed    float64 // m/s
	driveSpeed   float64 // m/s
	baseInterval time.Duration
	recordProb   float64 // per-day recording probability
}

// BaseInterval returns the user's native GPS sampling interval
// (1–5 s, as in GeoLife where ~91% of fixes are 1–5 s apart).
func (u *User) BaseInterval() time.Duration { return u.baseInterval }

// dayPlan lazily holds one user-day's immutable leg plan. The once
// gate makes first-build exclusive while letting any number of
// concurrent trace sources share the finished plan.
type dayPlan struct {
	once sync.Once
	legs []leg
}

// World is a generated city and population. It is immutable after New
// and safe for concurrent readers; per-user trace sources are created
// on demand and owned by their consumer. Day-leg plans are built
// lazily and memoized per (user, day), so repeated trace generation —
// the access pattern of every interval sweep — pays routing and RNG
// work once.
type World struct {
	cfg     Config
	venues  []Venue
	users   []*User
	plans   [][]dayPlan     // [user][day] memoized leg plans
	proj    *geo.Projection // city-anchored plane for per-fix noise offsets
	metrics Metrics         // optional observe-only counters

	campusCenter  geo.LatLon
	campusDorms   []Venue
	campusWork    []Venue
	campusFood    []Venue
	campusLeisure []Venue
}

// New generates a world deterministically from cfg.Seed.
func New(cfg Config) (*World, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	w := &World{cfg: cfg, proj: geo.NewProjection(cfg.CityCenter)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w.genVenues(rng)
	w.genUsers(rng)
	w.plans = make([][]dayPlan, len(w.users))
	for i := range w.plans {
		w.plans[i] = make([]dayPlan, cfg.Days)
	}
	return w, nil
}

// Config returns the configuration the world was generated from.
func (w *World) Config() Config { return w.cfg }

// SetMetrics installs observe-only counters. Call it right after New,
// before any trace source exists: the field is read without
// synchronization during trace generation.
func (w *World) SetMetrics(m Metrics) { w.metrics = m }

// NumUsers returns the population size.
func (w *World) NumUsers() int { return len(w.users) }

// User returns the spec of user id.
func (w *World) User(id int) (*User, error) {
	if id < 0 || id >= len(w.users) {
		return nil, fmt.Errorf("mobility: no user %d (population %d)", id, len(w.users))
	}
	return w.users[id], nil
}

// Venues returns the shared venue pool.
func (w *World) Venues() []Venue {
	out := make([]Venue, len(w.venues))
	copy(out, w.venues)
	return out
}

// genVenues places the shared pool: residential and office venues form
// loose clusters (districts), the rest scatter across the city.
func (w *World) genVenues(rng *rand.Rand) {
	mix := []struct {
		kind VenueKind
		frac float64
	}{
		{Residential, 0.30},
		{Office, 0.15},
		{Food, 0.25},
		{Leisure, 0.12},
		{Shop, 0.10},
		{Rare, 0.08},
	}
	// District centers for clustered kinds.
	nDistricts := 6
	districts := make([]geo.LatLon, nDistricts)
	for i := range districts {
		districts[i] = w.randomCityPoint(rng, 0.8)
	}
	id := 0
	add := func(kind VenueKind, pos geo.LatLon) Venue {
		v := Venue{ID: id, Kind: kind, Pos: pos}
		w.venues = append(w.venues, v)
		id++
		return v
	}
	for _, m := range mix {
		n := int(math.Round(m.frac * float64(w.cfg.Venues)))
		for i := 0; i < n; i++ {
			var pos geo.LatLon
			// Only homes and workplaces cluster into districts; every
			// other kind scatters city-wide, including future kinds.
			//lint:exhaustive placement only distinguishes district-clustered kinds
			switch m.kind {
			case Residential, Office:
				center := districts[rng.Intn(nDistricts)]
				pos = jitter(rng, center, w.cfg.CityRadius*0.18)
			default:
				pos = w.randomCityPoint(rng, 1.0)
			}
			add(m.kind, pos)
		}
	}

	// The campus: a dorm cluster, office buildings and shared canteens
	// packed around one center. Buildings are spread far enough apart
	// (≥ ~150 m) that PoI-level canonicalization keeps them distinct
	// while coarse region cells merge them.
	// The building pools are deliberately small relative to the campus
	// population: several users share the same dorm, office and
	// canteens, which is what makes their profiles collide.
	if w.cfg.FracCampus > 0 {
		w.campusCenter = districts[0]
		spread := w.cfg.CampusRadius
		for i := 0; i < 6; i++ {
			w.campusDorms = append(w.campusDorms, add(Residential, jitter(rng, w.campusCenter, spread)))
		}
		for i := 0; i < 4; i++ {
			w.campusWork = append(w.campusWork, add(Office, jitter(rng, w.campusCenter, spread)))
		}
		for i := 0; i < 3; i++ {
			w.campusFood = append(w.campusFood, add(Food, jitter(rng, w.campusCenter, spread)))
		}
		for i := 0; i < 2; i++ {
			w.campusLeisure = append(w.campusLeisure, add(Leisure, jitter(rng, w.campusCenter, spread)))
		}
	}
}

func (w *World) randomCityPoint(rng *rand.Rand, spread float64) geo.LatLon {
	// sqrt for uniform density over the disc.
	r := math.Sqrt(rng.Float64()) * w.cfg.CityRadius * spread
	return geo.Destination(w.cfg.CityCenter, rng.Float64()*360, r)
}

func jitter(rng *rand.Rand, p geo.LatLon, radius float64) geo.LatLon {
	return geo.Destination(p, rng.Float64()*360, math.Sqrt(rng.Float64())*radius)
}

// pick returns venues of the given kind.
func (w *World) byKind(kind VenueKind) []Venue {
	var out []Venue
	for _, v := range w.venues {
		if v.Kind == kind {
			out = append(out, v)
		}
	}
	return out
}

func (w *World) genUsers(rng *rand.Rand) {
	homes := w.byKind(Residential)
	offices := w.byKind(Office)
	foods := w.byKind(Food)
	leisures := append(w.byKind(Leisure), w.byKind(Shop)...)
	rares := w.byKind(Rare)

	for id := 0; id < w.cfg.Users; id++ {
		u := &User{
			ID:   id,
			seed: w.cfg.Seed*1_000_003 + int64(id)*7919,
		}
		r := rand.New(rand.NewSource(u.seed))

		switch p := r.Float64(); {
		case p < w.cfg.FracTripsOnly:
			u.Mode = RecordTripsOnly
		case p < w.cfg.FracTripsOnly+w.cfg.FracSparse:
			u.Mode = RecordSparse
		default:
			u.Mode = RecordContinuous
		}

		u.IsCampus = len(w.campusDorms) > 0 && r.Float64() < w.cfg.FracCampus
		if u.IsCampus {
			u.Home = w.campusDorms[r.Intn(len(w.campusDorms))]
			u.Work = w.campusWork[r.Intn(len(w.campusWork))]
		} else {
			u.Home = homes[r.Intn(len(homes))]
			u.Work = offices[r.Intn(len(offices))]
		}

		// Habitual routines: 0–2 morning stops, 1–2 evening stops, with
		// a per-user fixed order. Dwells are long enough to register as
		// PoIs under the paper's 10-minute operating point. Campus
		// users' routines stay on campus (shared canteens and lounges),
		// and their weeks are metronomic — they often work weekends.
		routinePool := leisures
		if u.IsCampus {
			routinePool = append(append([]Venue{}, w.campusLeisure...), w.campusFood...)
			u.weekendWork = r.Float64() < 0.75
		}
		nMorning := r.Intn(3)
		if u.IsCampus {
			nMorning = r.Intn(2)
		}
		for i := 0; i < nMorning; i++ {
			u.MorningRoutine = append(u.MorningRoutine, routineStop{
				venue: routinePool[r.Intn(len(routinePool))],
				dwell: time.Duration(15+r.Intn(40)) * time.Minute,
			})
		}
		nEvening := 1 + r.Intn(2)
		for i := 0; i < nEvening; i++ {
			u.EveningRoutine = append(u.EveningRoutine, routineStop{
				venue: routinePool[r.Intn(len(routinePool))],
				dwell: time.Duration(20+r.Intn(70)) * time.Minute,
			})
		}
		nLunch := 1 + r.Intn(2)
		for i := 0; i < nLunch; i++ {
			if u.IsCampus {
				u.LunchSpots = append(u.LunchSpots, w.campusFood[r.Intn(len(w.campusFood))])
			} else {
				u.LunchSpots = append(u.LunchSpots, foods[r.Intn(len(foods))])
			}
		}

		// Rare venues: 2–4 venues, 1–3 visits each, on random days.
		nRare := 2 + r.Intn(3)
		for i := 0; i < nRare; i++ {
			v := rares[r.Intn(len(rares))]
			visits := 1 + r.Intn(3)
			for j := 0; j < visits; j++ {
				u.rareVisits = append(u.rareVisits, rareVisit{
					day:     r.Intn(w.cfg.Days),
					venue:   v,
					dwell:   time.Duration(15+r.Intn(45)) * time.Minute,
					evening: r.Float64() < 0.5,
				})
			}
		}

		u.wakeMinute = 6*60 + r.Intn(120)
		u.workStartMin = 8*60 + 30 + r.Intn(90)
		u.workEndMin = 17*60 + r.Intn(120)
		u.sleepMinute = 22*60 + r.Intn(100)
		u.lunchProb = 0.6 + r.Float64()*0.35
		u.morningProb = 0.3 + r.Float64()*0.5
		u.eveningProb = 0.5 + r.Float64()*0.45
		u.weekendTrips = 1 + r.Intn(3)
		if u.IsCampus {
			// Grad-student metronome: canteen lunch daily, routine
			// evenings, barely any off-campus weekend roaming.
			u.lunchProb = 0.9 + r.Float64()*0.1
			u.morningProb = 0.6 + r.Float64()*0.3
			u.eveningProb = 0.7 + r.Float64()*0.3
			u.weekendTrips = r.Intn(2)
		}
		u.walkSpeed = 1.2 + r.Float64()*0.5
		u.driveSpeed = 7 + r.Float64()*7
		u.baseInterval = time.Duration(1+r.Intn(5)) * time.Second
		switch u.Mode {
		case RecordSparse:
			u.recordProb = 0.5 + r.Float64()*0.3
		case RecordContinuous, RecordTripsOnly:
			u.recordProb = 0.85 + r.Float64()*0.15
		default:
			// Unknown modes record like continuous users. Each branch
			// draws exactly once so the seeded stream stays aligned.
			u.recordProb = 0.85 + r.Float64()*0.15
		}

		w.users = append(w.users, u)
	}
}

// RareVenueIDs returns the IDs of the venues the user is scheduled to
// visit rarely — the sensitive-PoI ground truth for Figure 3(b).
func (u *User) RareVenueIDs() []int {
	seen := map[int]struct{}{}
	var out []int
	for _, rv := range u.rareVisits {
		if _, ok := seen[rv.venue.ID]; ok {
			continue
		}
		seen[rv.venue.ID] = struct{}{}
		out = append(out, rv.venue.ID)
	}
	return out
}
