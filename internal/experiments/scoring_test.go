package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"locwatch/internal/core"
)

// TestScoringPin pins risk scoring across commits: every Quick-world
// identification (each candidate's chi-square result, the posterior,
// the match count and the degree of anonymity) and each user's His_bin
// against their own history, for every interval and both patterns. The
// figure pins see Identify only through Figure 5's per-interval mean
// degree, and difftest and bench's oracle compare the scoring code
// with itself, so this is the check that a faster scoring path still
// emits the same bits.
func TestScoringPin(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-config profile builds are too heavy for -short")
	}
	lab := mustLab(t, Quick())
	defer lab.Close()
	hist, err := lab.HistoricalProfiles()
	if err != nil {
		t.Fatal(err)
	}
	adv, err := core.NewAdversary(hist)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, iv := range lab.Config().Intervals {
		collected, err := lab.collectedAt(iv)
		if err != nil {
			t.Fatal(err)
		}
		for user, obs := range collected {
			for _, pattern := range patterns {
				id, err := adv.Identify(obs, pattern)
				if err != nil {
					t.Fatalf("interval %v user %d %v: identify: %v", iv, user, pattern, err)
				}
				hisBin, err := hist[user].HisBin(obs, pattern)
				if err != nil {
					t.Fatalf("interval %v user %d %v: his_bin: %v", iv, user, pattern, err)
				}
				raw, err := json.Marshal(struct {
					Interval       string
					User           int
					Pattern        string
					Identification core.Identification
					HisBin         int
				}{iv.String(), user, pattern.String(), id, hisBin})
				if err != nil {
					t.Fatal(err)
				}
				out.Write(raw)
				out.WriteByte('\n')
			}
		}
	}
	checkPin(t, "quick scoring", out.String(), "c1bee7bdea4651a451e3e4638296d9e4582dff789348638660e6da530bedc2cb")
}
