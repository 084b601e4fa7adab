package experiments

import (
	"locwatch/internal/core"
	"locwatch/internal/mobility"
	"locwatch/internal/obs"
	"locwatch/internal/poi"
)

// coreMetrics wires the model-layer counters that ride on core.Params
// into deep call chains (profile builders, detectors, ablations)
// without new plumbing.
func coreMetrics(r *obs.Registry) core.Metrics {
	return core.Metrics{
		Points:   r.Counter("locwatch_core_points_total"),
		Visits:   r.Counter("locwatch_core_visits_total"),
		Breaches: r.Counter("locwatch_core_breaches_total"),
	}
}

// poiMetrics wires the extractor counters riding on poi.Params.
func poiMetrics(r *obs.Registry) poi.ExtractorObs {
	return poi.ExtractorObs{
		Points: r.Counter("locwatch_poi_points_total"),
		Stays:  r.Counter("locwatch_poi_stays_total"),
	}
}

// mobilityMetrics wires the simulator counters.
func mobilityMetrics(r *obs.Registry) mobility.Metrics {
	return mobility.Metrics{
		PlanBuilds: r.Counter("locwatch_mobility_plan_builds_total"),
		PlanHits:   r.Counter("locwatch_mobility_plan_cache_hits_total"),
		Fixes:      r.Counter("locwatch_mobility_fixes_total"),
	}
}
