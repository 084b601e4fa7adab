package lint_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"locwatch/internal/lint"
	"locwatch/internal/lint/loader"
)

// seededDefect is one regression seeded into a real file of this
// module: a patch, one hunk where the language allows, that some
// input or schedule turns into wrong output, a panic, a data race, a
// deadlock, a leaked goroutine or precise location leaving the
// process.
type seededDefect struct {
	// file is the module-relative path of the patched file.
	file string
	// old must occur exactly once in file; new replaces it.
	old, new string
	// more holds further old/new pairs applied to the same file, for a
	// defect that also needs an import or a struct field. Each old
	// must occur exactly once too.
	more [][2]string
	// pkgs are the packages linted on the patched tree. They include
	// every caller package a finding is reported in.
	pkgs []string
	// want is the set of analyzers with active findings on the
	// patched tree.
	want []string
	// caughtBy names the non-lint check that fails on the patched
	// tree: "vet", the failing test of the patched package, or "" when
	// neither catches the defect.
	caughtBy string
}

// seededDefects is the corpus that decides the analyzer roster, at
// least two entries per bug class an analyzer claims. Every analyzer
// in lint.All() must own at least one entry that nothing else catches
// (empty caughtBy, want naming that analyzer alone); an analyzer whose
// every catch is also a vet or test failure, or another kept
// analyzer's finding, adds no protection and goes. Entries that
// nothing catches stay: they record known gaps.
//
// caughtBy was measured once per entry on a patched copy of the
// module, with p the directory of the patched file:
//
//	go vet ./p
//	go test -race -count=1 ./p
//
// It names "vet" when vet fails, else the first test the go test run
// reports failing; for a panic or a timeout, the test running at the
// time. TestSeededDefects does not re-run those checks
// (internal/experiments alone takes minutes under -race); it re-checks
// only the lint side. The stream tests bound every Close they wait
// for, and the obs tests every registry misuse call, at 5 s at most,
// so even the two seeded self-deadlocks fail their first test within
// 5 s.
var seededDefects = []seededDefect{
	// latlonbounds: Lat and Lon swapped in a coordinate constant.
	{
		file: "internal/market/campaign.go",
		old:  "pos = geo.LatLon{Lat: 39.9042, Lon: 116.4074}",
		new:  "pos = geo.LatLon{Lat: 116.4074, Lon: 39.9042}",
		pkgs: []string{"./internal/market"},
		want: []string{"latlonbounds"},
	},
	{
		file: "cmd/lpwdumpsys/main.go",
		old:  "home := geo.LatLon{Lat: 39.9042, Lon: 116.4074}",
		new:  "home := geo.LatLon{Lat: 116.4074, Lon: 39.9042}",
		pkgs: []string{"./cmd/lpwdumpsys"},
		want: []string{"latlonbounds"},
	},

	// errflow: a failed write reported as a written trace.
	{
		file: "internal/trace/plt/plt.go",
		old: `	if err := bw.Flush(); err != nil {
		return fmt.Errorf("plt: flush: %w", err)
	}
	return nil`,
		new: `	bw.Flush()
	return nil`,
		pkgs: []string{"./internal/trace/plt"},
		want: []string{"errflow"},
	},
	{
		file: "internal/trace/plt/plt.go",
		old: `	if err := Write(f, pts); err != nil {
		_ = f.Close() // the write error takes precedence
		return err
	}
	if err := f.Close(); err != nil {`,
		new: `	err = Write(f, pts)
	if err = f.Close(); err != nil {`,
		pkgs: []string{"./internal/trace/plt"},
		want: []string{"errflow"},
	},

	// Precise location leaving the process: through an error the
	// commands log, an HTTP response, a log line, a served snapshot and
	// a span attribute privacyeval writes with -trace-out. The exit
	// tests catch each one by searching what the exit emits for the
	// positions that went in (privlog.FindLeaks).
	{
		file:     "internal/core/adversary.go",
		old:      "i, privlog.ScrubLatLon(p.Anchor()), privlog.ScrubLatLon(profiles[0].Anchor()))",
		new:      "i, p.Anchor(), privlog.ScrubLatLon(profiles[0].Anchor()))",
		pkgs:     []string{"./internal/core"},
		caughtBy: "TestNewAdversaryValidation",
	},
	{
		file:     "internal/stream/http.go",
		old:      `errorBody{Error: fmt.Sprintf("fix %d: coordinates out of range", i)})`,
		new:      `errorBody{Error: fmt.Sprintf("fix %d: coordinates %v out of range", i, p)})`,
		pkgs:     []string{"./internal/stream"},
		caughtBy: "TestHTTPExitsLeakNoFix",
	},
	{
		file: "internal/stream/http.go",
		old:  "	writeJSON(w, http.StatusAccepted, IngestResponse{Accepted: len(pts)})",
		new: `	var last geo.LatLon
	if len(pts) > 0 {
		last = pts[len(pts)-1].Pos
	}
	writeJSON(w, http.StatusAccepted, struct {
		IngestResponse
		Last geo.LatLon
	}{IngestResponse{Accepted: len(pts)}, last})`,
		pkgs:     []string{"./internal/stream"},
		caughtBy: "TestHTTPExitsLeakNoFix",
	},
	{
		file: "internal/stream/http.go",
		old: `		if !p.Valid() {
			writeJSON(w, http.StatusBadRequest,`,
		new: `		if !p.Valid() {
			log.Printf("ingest user %s: fix %d out of range: %v", userID, i, p)
			writeJSON(w, http.StatusBadRequest,`,
		more: [][2]string{{`	"io"
`, `	"io"
	"log"
`}},
		pkgs:     []string{"./internal/stream"},
		caughtBy: "TestHTTPExitsLeakNoFix",
	},
	{
		file: "internal/stream/risk.go",
		old: `		DegAnonymity: 1, // no adversary: nothing learned
	}
`,
		new: `		DegAnonymity: 1, // no adversary: nothing learned
	}
	if places := prof.Places(); len(places) > 0 {
		risk.Top = places[0].Pos.String()
	}
`,
		more: [][2]string{{"	Finalized bool `json:\"finalized\"`\n",
			"	Finalized bool `json:\"finalized\"`\n	// Top is the user's first place.\n	Top string `json:\"top,omitempty\"`\n"}},
		pkgs:     []string{"./internal/stream"},
		caughtBy: "TestHTTPExitsLeakNoFix",
	},
	{
		file: "internal/experiments/lab.go",
		old:  "	sp := l.root.Child(windowSpans[w])",
		new: `	sp := l.root.Child(windowSpans[w])
	if u, err := l.world.User(0); err == nil {
		sp.SetAttr("home", u.Home.Pos.String())
	}`,
		pkgs:     []string{"./internal/experiments"},
		caughtBy: "TestObsDeterminism",
	},

	// exhaustenum: a provider the permission switch does not handle.
	{
		file: "internal/android/android.go",
		old: `	Fused
)

// providerNames is indexed by Provider.
var providerNames = [...]string{"gps", "network", "passive", "fused"}`,
		new: `	Fused
	Wifi
)

// providerNames is indexed by Provider.
var providerNames = [...]string{"gps", "network", "passive", "fused", "wifi"}`,
		pkgs: []string{"./internal/android"},
		want: []string{"exhaustenum"},
	},
	{
		file: "internal/android/android.go",
		old: `	case Passive:
		return s.DeclaresLocation()
	case Fused:
		return s.DeclaresLocation()`,
		new: `	case Passive:
		return s.DeclaresLocation()`,
		pkgs:     []string{"./internal/android"},
		want:     []string{"exhaustenum"},
		caughtBy: "TestSpecPermissionPredicates",
	},

	// errflow: a discarded constructor error leaves a nil facade
	// pointer to dereference.
	{
		file: "internal/experiments/detect.go",
		old: `			cd, err := core.NewCombinedDetector(profiles[id])
			if err != nil {
				return err
			}
`,
		new: `			cd, _ := core.NewCombinedDetector(profiles[id])
`,
		pkgs: []string{"./internal/experiments"},
		want: []string{"errflow"},
	},
	{
		file: "internal/experiments/adversary.go",
		old: `	adv, err := core.NewAdversary(hist)
	if err != nil {
		return nil, err
	}
`,
		new: `	adv, _ := core.NewAdversary(hist)
`,
		pkgs: []string{"./internal/experiments"},
		want: []string{"errflow"},
	},

	// nilfacade: a guard inverted, so the reference profile is used
	// exactly when it is nil.
	{
		file: "internal/stream/risk.go",
		old:  "	if ref := refs.byUser[userID]; ref != nil {",
		new:  "	if ref := refs.byUser[userID]; ref == nil {",
		pkgs: []string{"./internal/stream"},
		want: []string{"nilfacade"},
	},

	// A helper that returns nil on one path: Peek before the first fix.
	// The streaming shards score a user's peeked profile, so a nil one
	// is dereferenced there; no analyzer follows the nil out of Peek.
	{
		file: "internal/core/profile.go",
		old: `func (b *ProfileBuilder) Peek() *Profile {
	b.profile.flushRegionRun()`,
		new: `func (b *ProfileBuilder) Peek() *Profile {
	if b.profile.points == 0 {
		return nil
	}
	b.profile.flushRegionRun()`,
		pkgs:     []string{"./internal/core", "./internal/stream"},
		caughtBy: "TestPeekBeforeFirstFix",
	},

	// Shutdown returns without joining the serve goroutine and drops its
	// exit error.
	{
		file: "internal/obs/server.go",
		old: `	err := s.srv.Shutdown(ctx)
	select {
	case <-s.done:
		if s.err != nil {
			return s.err
		}
	case <-ctx.Done():
	}
	return err`,
		new:      `	return s.srv.Shutdown(ctx)`,
		pkgs:     []string{"./internal/obs"},
		caughtBy: "TestServerShutdownReturnsServeError",
	},

	// Goroutines a close path no longer waits for: a shard stops without
	// draining its queue, and Close stops the flush ticker while its
	// SyncAll may still run. Nothing catches the second.
	{
		file: "internal/stream/shard.go",
		old: `	close(s.ops)
	<-s.done`,
		new:      `	close(s.ops)`,
		pkgs:     []string{"./internal/stream"},
		caughtBy: "TestCloseDrainsQueuedOps",
	},
	{
		file: "internal/stream/stream.go",
		old: `		close(e.tickStop)
		<-e.tickDone`,
		new:  `		close(e.tickStop)`,
		pkgs: []string{"./internal/stream"},
	},

	// A shared span field accessed without its lock: -race fails on
	// both.
	{
		file: "internal/obs/span.go",
		old: `	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {`,
		new:      `	if s.ended {`,
		pkgs:     []string{"./internal/obs"},
		caughtBy: "TestConcurrentSpans",
	},
	{
		file: "internal/obs/span.go",
		old: `	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()`,
		new: `	t.next++
	id := t.next`,
		pkgs:     []string{"./internal/obs"},
		caughtBy: "TestConcurrentSpans",
	},

	// Close closes the shard queues itself and no longer waits for them
	// to drain.
	{
		file: "internal/stream/stream.go",
		old: `	for _, sh := range e.shards {
		sh.close()
	}`,
		new: `	for _, sh := range e.shards {
		close(sh.ops)
	}`,
		pkgs:     []string{"./internal/stream"},
		caughtBy: "TestCloseDrainsQueuedOps",
	},

	// Double closes: without its closed guard a second Close closes
	// every channel again, and shard.close closes done, which run
	// closes again on exit.
	{
		file: "internal/stream/stream.go",
		old: `	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true`,
		new: `	e.mu.Lock()
	e.closed = true`,
		pkgs:     []string{"./internal/stream"},
		caughtBy: "TestCloseSemantics",
	},
	{
		file: "internal/stream/shard.go",
		old: `	close(s.ops)
	<-s.done`,
		new: `	close(s.ops)
	close(s.done)`,
		pkgs:     []string{"./internal/stream"},
		caughtBy: "TestIngestAndRiskRoundTrip",
	},

	// Degrees handed to radian trig: the geo tests fail on all three.
	{
		file:     "internal/geo/geo.go",
		old:      "cosLat0: math.Cos(origin.Lat * degToRad),",
		new:      "cosLat0: math.Cos(origin.Lat),",
		pkgs:     []string{"./internal/geo"},
		caughtBy: "TestProjectionPlanarDistanceAgreesWithHaversine",
	},
	{
		file:     "internal/geo/geo.go",
		old:      "x := math.Cos(lat1)*math.Sin(lat2)",
		new:      "x := math.Cos(p.Lat)*math.Sin(lat2)",
		pkgs:     []string{"./internal/geo"},
		caughtBy: "TestDestinationRoundTrip",
	},
	{
		file:     "internal/geo/geo.go",
		old:      "brng := bearingDeg * degToRad",
		new:      "brng := bearingDeg",
		pkgs:     []string{"./internal/geo"},
		caughtBy: "TestDestinationRoundTrip",
	},

	// durationseconds: a unitless constant read as nanoseconds.
	{
		file:     "internal/poi/poi.go",
		old:      "return Params{Radius: 50, MinVisit: 10 * time.Minute}",
		new:      "return Params{Radius: 50, MinVisit: 600}",
		pkgs:     []string{"./internal/poi"},
		want:     []string{"durationseconds"},
		caughtBy: "TestExtractorShortStopIgnored",
	},
	{
		file: "internal/market/campaign.go",
		old:  "observe = 2 * time.Minute",
		new:  "observe = 120",
		pkgs: []string{"./internal/market"},
		want: []string{"durationseconds"},
	},

	// Ambient time or randomness in the seeded world: the mobility tests
	// fail on both.
	{
		file:     "internal/mobility/world.go",
		old:      "rng := rand.New(rand.NewSource(cfg.Seed))",
		new:      "rng := rand.New(rand.NewSource(time.Now().UnixNano()))",
		pkgs:     []string{"./internal/mobility"},
		caughtBy: "TestConcurrentTracesShareOnePlanCache",
	},
	{
		file:     "internal/mobility/world.go",
		old:      "switch p := r.Float64(); {",
		new:      "switch p := rand.Float64(); {",
		pkgs:     []string{"./internal/mobility"},
		caughtBy: "TestConcurrentTracesShareOnePlanCache",
	},

	// Fan-out workers writing one shared map or slice header: -race fails
	// on both.
	{
		file: "internal/experiments/lab.go",
		old: `	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(l.cfg.workers(), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := int(next.Add(1)) - 1; id < n; id = int(next.Add(1)) - 1 {
				t := l.taskSeconds.Timer()
				errs[id] = fn(id)
				t.Stop()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)`,
		new: `	errs := make(map[int]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(l.cfg.workers(), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := int(next.Add(1)) - 1; id < n; id = int(next.Add(1)) - 1 {
				t := l.taskSeconds.Timer()
				errs[id] = fn(id)
				t.Stop()
			}
		}()
	}
	wg.Wait()
	joined := make([]error, n)
	for id := range joined {
		joined[id] = errs[id]
	}
	return errors.Join(joined...)`,
		pkgs:     []string{"./internal/experiments"},
		caughtBy: "TestCombinedDetectorDominates",
	},
	{
		file: "internal/market/campaign.go",
		old: `	obs := make([]Observation, len(declaring))
	errs := make([]error, len(declaring))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				obs[i], errs[i] = c.measureOne(declaring[i], observe, pos)
			}`,
		new: `	obs := make([]Observation, 0, len(declaring))
	errs := make([]error, len(declaring))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				o, err := c.measureOne(declaring[i], observe, pos)
				obs = append(obs, o)
				errs[i] = err
			}`,
		pkgs:     []string{"./internal/market"},
		caughtBy: "TestCampaignReproducesSectionIII",
	},

	// A wait that ignores ctx under the engine's read lock, which Close
	// needs.
	{
		file: "internal/stream/shard.go",
		old: `	select {
	case s.ops <- op:
		s.eng.obsm.queueDepth.Inc()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}`,
		new: `	s.ops <- op
	s.eng.obsm.queueDepth.Inc()
	return nil`,
		pkgs:     []string{"./internal/stream"},
		caughtBy: "TestIngestBackpressureRespectsContext",
	},
	{
		file: "internal/stream/stream.go",
		old: `	select {
	case rep := <-ch:
		return rep.risk, rep.err
	case <-ctx.Done():
		return Risk{}, ctx.Err()
	}`,
		new: `	rep := <-ch
	return rep.risk, rep.err`,
		pkgs:     []string{"./internal/stream"},
		caughtBy: "TestRiskRespectsContext",
	},

	// Close waits for the flush ticker under the write lock, while the
	// ticker's SyncAll waits for the read lock.
	{
		file: "internal/stream/stream.go",
		old: `	e.closed = true
	e.mu.Unlock()
	// No new submissions can start now (closed is set under the write
	// lock every submitter reads under); stop the ticker, then let the
	// shards drain what is queued.
	if e.tickStop != nil {
		close(e.tickStop)
		<-e.tickDone
	}`,
		new: `	e.closed = true
	// No new submissions can start now (closed is set under the write
	// lock every submitter reads under); stop the ticker, then let the
	// shards drain what is queued.
	if e.tickStop != nil {
		close(e.tickStop)
		<-e.tickDone
	}
	e.mu.Unlock()`,
		pkgs:     []string{"./internal/stream"},
		caughtBy: "TestCloseWithPendingTick",
	},

	// A mutex re-acquired by the goroutine that holds it: both hang
	// the call, which the test fails after 5 s.
	{
		file: "internal/stream/stream.go",
		old: `	e.closed = true
	e.mu.Unlock()`,
		new: `	if err := e.eachShard(context.Background(), (*shard).finalizeAll); err != nil {
		e.mu.Unlock()
		return err
	}
	e.closed = true
	e.mu.Unlock()`,
		pkgs:     []string{"./internal/stream"},
		caughtBy: "TestIngestAndRiskRoundTrip",
	},
	{
		file: "internal/obs/registry.go",
		old: `		if taken && otherKind != kind {
			panic(`,
		new: `		if taken && otherKind != kind {
			r.Counter("obs_kind_collisions_total").Inc()
			panic(`,
		pkgs:     []string{"./internal/obs"},
		caughtBy: "TestRegistryMisusePanics",
	},

	// Evict reads the result of an op its ctx abandoned, racing the
	// shard goroutine's later write.
	{
		file: "internal/stream/stream.go",
		old: `	if err != nil {
		// The op may still run later and write found.
		return false, err
	}
	return found, nil`,
		new:      `	return found, err`,
		pkgs:     []string{"./internal/stream"},
		caughtBy: "TestEvictRespectsContext",
	},
}

// TestSeededDefects applies each corpus entry to a copy of the
// module's non-test sources and asserts that exactly the analyzers in
// want report an active finding on the patched packages.
func TestSeededDefects(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a patched module copy per entry; skipped in -short mode")
	}
	checkRoster(t)
	root, err := loader.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	sources, err := moduleSources(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range seededDefects {
		t.Run(entryName(d), func(t *testing.T) {
			t.Parallel()
			src, ok := sources[d.file]
			if !ok {
				t.Fatalf("%s is not a non-test source file of the module", d.file)
			}
			hunks := append([][2]string{{d.old, d.new}}, d.more...)
			for _, h := range hunks {
				if n := bytes.Count(src, []byte(h[0])); n != 1 {
					t.Fatalf("old hunk %q occurs %d times in %s, want exactly 1", h[0], n, d.file)
				}
				src = bytes.Replace(src, []byte(h[0]), []byte(h[1]), 1)
			}
			dir := t.TempDir()
			for rel, data := range sources {
				if rel == d.file {
					data = src
				}
				path := filepath.Join(dir, filepath.FromSlash(rel))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			mod, err := loader.GoListDeps(dir, d.pkgs...)
			if err != nil {
				t.Fatal(err)
			}
			pkgs, err := mod.Load()
			if err != nil {
				t.Fatal(err)
			}
			findings, err := lint.Run(pkgs, lint.All())
			if err != nil {
				t.Fatal(err)
			}
			fired := make(map[string]bool)
			for _, f := range findings {
				if f.Active() {
					fired[f.Analyzer] = true
				}
			}
			var got []string
			for name := range fired {
				got = append(got, name)
			}
			sort.Strings(got)
			if strings.Join(got, ",") != strings.Join(d.want, ",") {
				for _, f := range findings {
					if f.Active() {
						t.Logf("%s", f)
					}
				}
				t.Errorf("analyzers firing = %v, want %v", got, d.want)
			}
		})
	}
}

// checkRoster enforces the roster rule over the corpus table: each
// analyzer needs a catch of its own that no vet run, test or other
// analyzer also makes.
func checkRoster(t *testing.T) {
	t.Helper()
	own := make(map[string]int)
	for _, d := range seededDefects {
		if d.caughtBy == "" && len(d.want) == 1 {
			own[d.want[0]]++
		}
	}
	for _, a := range lint.All() {
		if own[a.Name] == 0 {
			t.Errorf("%s has no seeded defect that only it catches", a.Name)
		}
	}
}

// entryName labels a corpus entry by its file and the first line of
// its hunk.
func entryName(d seededDefect) string {
	first, _, _ := strings.Cut(strings.TrimSpace(d.old), "\n")
	return d.file + ":" + first
}

// moduleSources reads go.mod and every non-test Go file of the module
// rooted at root, keyed by slash-separated relative path. Testdata
// trees and nested modules are skipped.
func moduleSources(root string) (map[string][]byte, error) {
	out := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path == root {
				return nil
			}
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if path != filepath.Join(root, "go.mod") &&
			(!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		out[filepath.ToSlash(rel)] = data
		return nil
	})
	return out, err
}
