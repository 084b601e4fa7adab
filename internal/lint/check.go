package lint

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"locwatch/internal/lint/analysis"
	"locwatch/internal/lint/cache"
	"locwatch/internal/lint/loader"
)

// CheckOptions configures one lint run.
type CheckOptions struct {
	// Dir is the module root (or any directory inside it) the patterns
	// resolve against. Empty means ".".
	Dir string
	// Patterns are go-list package patterns; empty means ./...
	Patterns []string
	// Analyzers is the suite to run; nil means All().
	Analyzers []*analysis.Analyzer
	// CacheDir enables the findings cache when non-empty. Entries are
	// keyed by content fingerprints, so the directory can be shared
	// across branches and checkouts without any invalidation protocol.
	CacheDir string
}

// toolchain salts the cache key: findings computed against one
// standard library are never replayed under another.
var toolchain = runtime.Version()

// Check runs the suite over the packages matching the options. With a
// CacheDir it first looks up the findings of an identical earlier run
// — same toolchain, analyzer roster, root packages and source bytes of
// every listed package — and replays them without loading anything;
// hit reports whether it did. Finding paths are module-relative
// (slash-separated), which keeps cached entries valid across checkout
// locations and makes cold and warm output byte-identical.
func Check(opts CheckOptions) (findings []Finding, hit bool, err error) {
	dir := opts.Dir
	if dir == "" {
		dir = "."
	}
	root, err := loader.ModuleRoot(dir)
	if err != nil {
		return nil, false, err
	}
	analyzers := opts.Analyzers
	if analyzers == nil {
		analyzers = All()
	}
	mod, err := loader.GoListDeps(root, opts.Patterns...)
	if err != nil {
		return nil, false, err
	}

	var store *cache.Dir
	var key string
	if opts.CacheDir != "" {
		if store, err = cache.Open(opts.CacheDir); err != nil {
			return nil, false, err
		}
		fp, err := cache.Fingerprint(mod.Packages)
		if err != nil {
			return nil, false, err
		}
		key = cache.Key(cache.FormatVersion, toolchain, rosterOf(analyzers), strings.Join(mod.Roots, "\n"), fp)
		if cached, ok := getFindings(store, key); ok {
			return cached, true, nil
		}
	}

	ld, pkgs, err := mod.Load()
	if err != nil {
		return nil, false, err
	}
	findings, err = BuildProgram(pkgs, ld.Package).Run(analyzers)
	if err != nil {
		return nil, false, err
	}
	relativize(root, findings)
	if store != nil {
		if err := putFindings(store, key, findings); err != nil {
			return nil, false, err
		}
	}
	return findings, false, nil
}

// rosterOf identifies an analyzer set for cache keying: names sorted
// and joined, so enabling, disabling or renaming any analyzer changes
// the key.
func rosterOf(analyzers []*analysis.Analyzer) string {
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// relativize rewrites finding paths to be module-relative and
// slash-separated. Paths outside the module (stdlib positions never
// reach findings, but belt and braces) stay absolute.
func relativize(root string, fs []Finding) {
	for i := range fs {
		fs[i].File = relPath(root, fs[i].File)
		for j := range fs[i].Related {
			fs[i].Related[j].File = relPath(root, fs[i].Related[j].File)
		}
	}
}

func relPath(root, file string) string {
	if root == "" || file == "" {
		return file
	}
	rel, err := filepath.Rel(root, file)
	if err != nil || strings.HasPrefix(rel, "..") {
		return file
	}
	return filepath.ToSlash(rel)
}

// cacheEntry is the serialized form of one run's findings.
type cacheEntry struct {
	Findings []Finding `json:"findings"`
}

func getFindings(store *cache.Dir, key string) ([]Finding, bool) {
	data, ok := store.Get(key)
	if !ok {
		return nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil {
		// A corrupt entry is a miss; the run overwrites it.
		return nil, false
	}
	return e.Findings, true
}

func putFindings(store *cache.Dir, key string, fs []Finding) error {
	if fs == nil {
		fs = []Finding{}
	}
	data, err := json.Marshal(cacheEntry{Findings: fs})
	if err != nil {
		return fmt.Errorf("lint: encode cache entry: %w", err)
	}
	return store.Put(key, data)
}
