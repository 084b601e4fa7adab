package experiments

import (
	"encoding/json"
	"fmt"
	"testing"
)

// TestShardedReductionDeterminism pins the DESIGN.md §7 invariant for
// the sharded per-user sweeps: every experiment writes worker results
// into index-ordered slots and folds them sequentially by user id, so
// the output must be byte-identical between a serial lab (Workers=1)
// and a genuinely concurrent one (Workers=4 — deliberately above
// GOMAXPROCS on single-CPU runners to force interleaved per-user
// tasks). The run covers both the figure pipeline and the ablations,
// i.e. every converted reduction site.
func TestShardedReductionDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure+ablation pipeline is too heavy for -short")
	}

	outputs := func(workers int) string {
		cfg := tinyConfig()
		cfg.Workers = workers
		lab := mustLab(t, cfg)
		defer lab.Close()
		out := figureOutputs(t, lab)
		add := func(name string, r interface{ Render() string }, err error) {
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, name, err)
			}
			raw, err := json.MarshalIndent(r, "", " ")
			if err != nil {
				t.Fatalf("workers=%d %s: marshal: %v", workers, name, err)
			}
			out += fmt.Sprintf("=== %s ===\n%s\n%s\n", name, raw, r.Render())
		}
		ae, err := AblationExtractor(lab)
		add("ablation_extractor", ae, err)
		am, err := AblationMitigation(lab)
		add("ablation_mitigation", am, err)
		ac, err := AblationCloaking(lab)
		add("ablation_cloaking", ac, err)
		return out
	}

	serial := outputs(1)
	checkPin(t, "workers=1", serial, "38a098ee001c04b418ce7277e3b8166c93148761e7e7ad082bde8f69e3064c01")
	sharded := outputs(4)
	if serial == sharded {
		return
	}
	a, b := []byte(serial), []byte(sharded)
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	t.Fatalf("worker count changed the output at byte %d:\nworkers=1: %q\nworkers=4: %q",
		i, serial[lo:min(i+80, len(serial))], sharded[lo:min(i+80, len(sharded))])
}
