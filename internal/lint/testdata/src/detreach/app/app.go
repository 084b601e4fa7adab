// Package app lies outside the deterministic set, and nothing
// deterministic reaches Stamp, so its clock read stays silent.
package app

import "time"

func Stamp() time.Time {
	return time.Now()
}
