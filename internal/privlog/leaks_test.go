package privlog_test

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"locwatch/internal/geo"
	"locwatch/internal/privlog"
	"locwatch/internal/trace"
)

func TestFindLeaksPositives(t *testing.T) {
	in := []geo.LatLon{rawPoint()}
	pt := trace.Point{Pos: rawPoint(), T: time.Date(2026, 3, 2, 8, 0, 0, 0, time.UTC)}
	js, err := json.Marshal(rawPoint())
	if err != nil {
		t.Fatal(err)
	}
	// A place centroid: derived from the fixes, not equal to any.
	centroid := geo.Centroid([]geo.LatLon{rawPoint(), geo.Destination(rawPoint(), 45, 300)})
	for name, out := range map[string]string{
		"LatLon.String":      "home " + rawPoint().String(),
		"%v of a LatLon":     fmt.Sprintf("at %v", rawPoint()),
		"%v of a Point":      fmt.Sprintf("fix %v out of range", pt),
		"JSON":               `{"accepted":3,"Last":` + string(js) + `}`,
		"longitude first":    fmt.Sprintf("[%.6f,%.6f]", rawLon, rawLat),
		"derived position":   "top " + centroid.String(),
		"five decimals":      fmt.Sprintf("%.5f %.5f", rawLat, rawLon),
		"among other output": fmt.Sprintf("n=3 ratio=0.5 %v took 1.234567s", rawPoint()),
	} {
		if hits := privlog.FindLeaks([]byte(out), in); len(hits) != 1 {
			t.Errorf("%s: %q: hits %q, want one", name, out, hits)
		}
	}
}

func TestFindLeaksNegatives(t *testing.T) {
	in := []geo.LatLon{rawPoint()}
	for name, out := range map[string]string{
		"ScrubLatLon":      privlog.ScrubLatLon(rawPoint()),
		"four decimals":    privlog.ScrubLatLonPrecision(rawPoint(), 9),
		"Scrub of a Point": privlog.Sprintf("fix %v", trace.Point{Pos: rawPoint()}),
		"counts":           `{"accepted":47,"rejected":122,"fixes":620493}`,
		"ratios":           "deg_anonymity 0.873421 his_bin_ratio 0.125000",
		"one lone number":  fmt.Sprintf("lat %.6f only", rawLat),
		"unpaired numbers": fmt.Sprintf("%.6f then 7 then %.6f", rawLat, rawLon),
		"another place":    geo.LatLon{Lat: 39.912345, Lon: 116.312345}.String(),
		"timing":           "ingest took 47.620493 ms, risk 0.000123 s",
		"precise but far":  fmt.Sprintf("%.6f, %.6f", rawLat+0.02, rawLon),
		"empty":            "",
	} {
		if hits := privlog.FindLeaks([]byte(out), in); len(hits) != 0 {
			t.Errorf("%s: %q: hits %q, want none", name, out, hits)
		}
	}
	if hits := privlog.FindLeaks([]byte(rawPoint().String()), nil); len(hits) != 0 {
		t.Errorf("no inputs: hits %q", hits)
	}
}
