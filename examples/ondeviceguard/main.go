// On-device privacy guard: the defense the paper's measurements
// motivate. A guard service on the handset knows the owner's own
// profile (built locally from the device's history), watches what each
// installed app actually receives, and raises an alert the moment any
// app's accumulated collection would reveal the owner's profile —
// using the combined two-pattern detector the paper concludes with.
// When the guard fires, it clamps the offending app's access with a
// rate limit and shows that the clamped stream stays below the breach
// threshold.
//
//	go run ./examples/ondeviceguard
package main

import (
	"fmt"
	"log"
	"time"

	"locwatch"

	"locwatch/internal/android"
	"locwatch/internal/trace"
)

func main() {
	log.SetFlags(0)

	// The owner's history: two weeks of movement.
	cfg := locwatch.DefaultMobilityConfig()
	cfg.Users = 2
	cfg.Days = 14
	cfg.FracTripsOnly = 0
	cfg.FracSparse = 0
	world, err := locwatch.NewWorld(cfg)
	if err != nil {
		log.Fatal(err)
	}
	src, err := world.Trace(0, 0)
	if err != nil {
		log.Fatal(err)
	}
	history, err := locwatch.Collect(src, 0)
	if err != nil {
		log.Fatal(err)
	}
	profile, err := locwatch.BuildProfile(locwatch.NewSliceSource(history.Points), cfg.CityCenter, locwatch.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("guard: learned the owner's profile locally — %d places, %d visits\n",
		profile.NumPlaces(), profile.NumVisits())

	// A suspicious app collects in background every 2 minutes.
	spec := locwatch.AppSpec{
		Package:     "com.example.coupons",
		Category:    "SHOPPING",
		Permissions: []android.Permission{android.PermFine, android.PermCoarse},
		Behavior: locwatch.AppBehavior{
			UsesLocation: true, AutoRequest: true,
			Providers: []locwatch.Provider{locwatch.ProviderGPS},
			Interval:  2 * time.Minute, Background: true,
		},
	}

	// The guard mirrors every fix delivered to the app into a combined
	// detector keyed to the owner's profile.
	guard, err := locwatch.NewCombinedDetector(profile)
	if err != nil {
		log.Fatal(err)
	}

	appStream := trace.NewSampler(locwatch.NewSliceSource(history.Points), spec.Behavior.Interval, 0)
	alerted := false
	var alertAt time.Time
	for {
		p, err := appStream.Next()
		if err != nil {
			break
		}
		if err := guard.Feed(p); err != nil {
			log.Fatal(err)
		}
		if !guard.Due() {
			continue
		}
		combined, region, movement, err := guard.Check()
		if err != nil {
			log.Fatal(err)
		}
		if combined.Breached {
			which := "pattern 1 (region profile)"
			if movement.Breached {
				which = "pattern 2 (movement profile)"
			}
			if region.Breached && movement.Breached {
				which = "both patterns"
			}
			fmt.Printf("\nALERT after %d fixes (%s of collection):\n", combined.PointsFed, p.T.Sub(history.Points[0].T).Round(time.Hour))
			fmt.Printf("  %s would reveal your activity profile to %q\n", which, spec.Package)
			alerted = true
			alertAt = p.T
			break
		}
	}
	if !alerted {
		fmt.Println("no breach detected over the whole window")
		return
	}

	// Remediation: clamp the app to one fix per 2 hours and verify the
	// rest of the window stays below the breach threshold.
	fmt.Printf("\nguard action: clamping %q to one fix per 2 h from %s\n",
		spec.Package, alertAt.Format("2006-01-02 15:04"))
	clamped, err := locwatch.RateLimitStream(
		trace.NewTimeWindow(locwatch.NewSliceSource(history.Points), alertAt, time.Time{}),
		2*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	post, err := locwatch.BuildProfile(clamped, cfg.CityCenter, locwatch.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	for _, pattern := range []locwatch.Pattern{locwatch.PatternRegion, locwatch.PatternMovement} {
		bin, err := profile.HisBin(post, pattern)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  post-clamp His_bin under %v: %d\n", pattern, bin)
	}
	total, disc := profile.SensitiveCoverage(post, 3)
	fmt.Printf("  post-clamp sensitive PoIs discoverable: %d/%d\n", disc, total)
}
