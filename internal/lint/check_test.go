package lint_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"locwatch/internal/lint"
)

// fixtureModule materializes a tiny self-contained module: package a
// has a blockhold finding and imports package b, which is clean.
func fixtureModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.24\n",
		"a/a.go": `package a

import (
	"sync"

	"tmpmod/b"
)

type Q struct {
	mu sync.Mutex
	ch chan int
}

func (q *Q) Send(v int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.ch <- b.Inc(v)
}
`,
		"b/b.go": `package b

func Inc(n int) int { return n + 1 }
`,
	}
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func marshalFindings(t *testing.T, fs []lint.Finding) []byte {
	t.Helper()
	data, err := json.Marshal(fs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckColdWarmIdentical is the findings cache's core contract: a
// warm run after a no-op touch answers entirely from the cache — no
// load, no type-check — and its findings are byte-for-byte the cold
// run's; after a real edit the run misses and repopulates, and a
// second run reproduces the post-edit findings byte-for-byte too.
func TestCheckColdWarmIdentical(t *testing.T) {
	root := fixtureModule(t)
	opts := lint.CheckOptions{Dir: root, CacheDir: filepath.Join(root, ".lintcache")}

	cold, hit, err := lint.Check(opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("cold run hit the cache")
	}
	var found bool
	for _, f := range cold {
		if f.Analyzer == "blockhold" && f.File == "a/a.go" {
			found = true
		}
	}
	if !found {
		t.Fatalf("cold findings %v missing the blockhold seed", cold)
	}

	// No-op touch: rewrite a.go with identical bytes.
	aPath := filepath.Join(root, "a", "a.go")
	content, err := os.ReadFile(aPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(aPath, content, 0o644); err != nil {
		t.Fatal(err)
	}
	warm, hit, err := lint.Check(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("warm run after a no-op touch missed the cache")
	}
	if !bytes.Equal(marshalFindings(t, cold), marshalFindings(t, warm)) {
		t.Fatalf("warm findings diverge from cold:\n cold %s\n warm %s",
			marshalFindings(t, cold), marshalFindings(t, warm))
	}

	// Real edit to a: the key moves and the whole suite re-runs.
	edited := append([]byte(nil), content...)
	edited = append(edited, []byte("\nfunc (q *Q) Len() int {\n\tq.mu.Lock()\n\tdefer q.mu.Unlock()\n\treturn len(q.ch)\n}\n")...)
	if err := os.WriteFile(aPath, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	after, hit, err := lint.Check(opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("post-edit run hit the cache")
	}
	warmAfter, hit, err := lint.Check(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second post-edit run missed the cache")
	}
	if !bytes.Equal(marshalFindings(t, after), marshalFindings(t, warmAfter)) {
		t.Fatal("post-edit warm findings diverge from the post-edit cold run")
	}
}

// TestCheckRosterInvalidates pins the analyzer-roster salt: the same
// sources checked with a different analyzer set miss the cache.
func TestCheckRosterInvalidates(t *testing.T) {
	root := fixtureModule(t)
	opts := lint.CheckOptions{Dir: root, CacheDir: filepath.Join(root, ".lintcache")}
	if _, _, err := lint.Check(opts); err != nil {
		t.Fatal(err)
	}
	subset := lint.All()[:len(lint.All())-1]
	_, hit, err := lint.Check(lint.CheckOptions{
		Dir: root, CacheDir: opts.CacheDir, Analyzers: subset,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("a roster change hit the cache")
	}
}

// TestCheckToolchainInvalidates pins the toolchain salt: an unchanged
// tree checked under another Go version misses the cache, because its
// findings were computed against another standard library.
func TestCheckToolchainInvalidates(t *testing.T) {
	root := fixtureModule(t)
	opts := lint.CheckOptions{Dir: root, CacheDir: filepath.Join(root, ".lintcache")}
	if _, _, err := lint.Check(opts); err != nil {
		t.Fatal(err)
	}
	defer lint.SetToolchain("go0.0-other")()
	_, hit, err := lint.Check(opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("a toolchain change hit the cache")
	}
}

// TestCheckNoCache pins the uncached path: same findings as the cached
// cold run, and never a hit.
func TestCheckNoCache(t *testing.T) {
	root := fixtureModule(t)
	plain, hit, err := lint.Check(lint.CheckOptions{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("uncached run reports a cache hit")
	}
	cached, _, err := lint.Check(lint.CheckOptions{Dir: root, CacheDir: filepath.Join(root, ".lintcache")})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalFindings(t, plain), marshalFindings(t, cached)) {
		t.Fatal("uncached and cached cold runs disagree")
	}
}
