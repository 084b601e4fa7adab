package privlog

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"

	"locwatch/internal/geo"
)

// leakDigits is the fewest fractional digits a number needs to count
// as a raw coordinate in FindLeaks. Nothing this package emits has
// more than 4 (ScrubLatLonPrecision's clamp), while LatLon.String
// prints 6 and %v prints a float64's full shortest form.
const leakDigits = 5

// leakTolerance is how close, in degrees of latitude and of longitude,
// a printed pair must lie to an input position to count as leaking
// it: 0.01° (about 1.1 km) also catches positions derived from the
// inputs, such as a stay's centroid.
const leakTolerance = 0.01

// FindLeaks is the black-box check that backs this package's promise
// at the places bytes leave the process: it searches out for the raw
// positions in inputs, the way traffic analysis searches an app's
// output for the device's known coordinates. A hit is two consecutive
// numbers in out, each with at least leakDigits fractional digits,
// that lie within leakTolerance of one input in latitude and in
// longitude, in either order. That covers LatLon.String, %v of a
// geo.LatLon or trace.Point, their JSON encoding and positions derived
// from the inputs; scrubbed output, counts, ratios and a lone
// high-precision number never match. Each hit is described by the
// matched text and the input it matched. Inputs should carry at least
// 6 fractional digits: %v prints a round coordinate such as 39.9 with
// too few digits to be told from an ordinary figure.
func FindLeaks(out []byte, inputs []geo.LatLon) []string {
	type num struct {
		text string
		val  float64
		raw  bool // has at least leakDigits fractional digits
	}
	// A decimal number, sign included; the exponent of a float printed
	// in e-notation matches as a number of its own.
	number := regexp.MustCompile(`-?[0-9]+(\.[0-9]+)?`)
	var nums []num
	for _, loc := range number.FindAllIndex(out, -1) {
		text := string(out[loc[0]:loc[1]])
		val, _ := strconv.ParseFloat(text, 64) // out of range reads ±Inf, near no input
		_, frac, _ := strings.Cut(text, ".")
		nums = append(nums, num{text: text, val: val, raw: len(frac) >= leakDigits})
	}
	near := func(v, w float64) bool { return math.Abs(v-w) <= leakTolerance }
	var hits []string
	for i := 1; i < len(nums); i++ {
		a, b := nums[i-1], nums[i]
		if !a.raw || !b.raw {
			continue
		}
		for _, p := range inputs {
			if near(a.val, p.Lat) && near(b.val, p.Lon) || near(b.val, p.Lat) && near(a.val, p.Lon) {
				hits = append(hits, fmt.Sprintf("%s, %s matches input %s", a.text, b.text, p))
				break
			}
		}
	}
	return hits
}
