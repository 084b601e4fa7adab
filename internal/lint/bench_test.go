package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"locwatch/internal/lint"
	"locwatch/internal/lint/analysis"
	"locwatch/internal/lint/loader"
)

// loadBenchProgram loads one fixture package and builds the
// whole-program view over it, outside the timed loop.
func loadBenchProgram(b *testing.B, path string) (*lint.Program, *loader.Package) {
	b.Helper()
	ld := loader.New(loader.SrcDir(fixtures))
	pkg, err := ld.Load(path)
	if err != nil {
		b.Fatalf("loading %s: %v", path, err)
	}
	return lint.BuildProgram([]*loader.Package{pkg}, ld.Package), pkg
}

// benchAnalyzer times one flow-sensitive analyzer over its own fixture
// package — the densest findings-per-line input it will ever see, so
// these numbers bound the per-package cost on real code. The program
// (call graph + summaries) is prebuilt; callgraph's own bench_test
// times that construction.
func benchAnalyzer(b *testing.B, a *analysis.Analyzer, path string) {
	b.Helper()
	prog, pkg := loadBenchProgram(b, path)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.RunPackage(pkg, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNilFacade(b *testing.B)   { benchAnalyzer(b, lint.NilFacade, "nilfacade") }
func BenchmarkErrFlow(b *testing.B)     { benchAnalyzer(b, lint.ErrFlow, "errflow") }
func BenchmarkExhaustEnum(b *testing.B) { benchAnalyzer(b, lint.ExhaustEnum, "exhaustenum") }
func BenchmarkSpawnLeak(b *testing.B)   { benchAnalyzer(b, lint.SpawnLeak, "spawnleak") }
func BenchmarkPrivTaint(b *testing.B)   { benchAnalyzer(b, lint.PrivTaint, "privtaint/app") }

// BenchmarkLocksafe includes the lazily-computed concurrency memos
// (spawn flood, entry locksets) in the first iteration and the steady
// per-package cost afterwards — the same amortization a real
// locwatchlint run sees.
func BenchmarkLocksafe(b *testing.B)  { benchAnalyzer(b, lint.LockSafe, "locksafe") }
func BenchmarkChanOwner(b *testing.B) { benchAnalyzer(b, lint.ChanOwner, "chanowner") }

// benchCheckModule materializes a self-contained module for the
// findings-cache benchmark: three packages with enough real
// concurrency shapes (mutexes, channels, goroutines) that the cold run
// pays genuine parse/type-check/analysis cost, including the stdlib
// export-data import of sync and time.
func benchCheckModule(b *testing.B) string {
	b.Helper()
	root := b.TempDir()
	files := map[string]string{
		"go.mod": "module benchmod\n\ngo 1.24\n",
		"core/core.go": `package core

import "sync"

type Counter struct {
	mu sync.Mutex
	n  int
}

func (c *Counter) Add(d int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n += d
}

func (c *Counter) Get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
`,
		"queue/queue.go": `package queue

import (
	"sync"

	"benchmod/core"
)

type Q struct {
	mu  sync.Mutex
	ch  chan int
	cnt core.Counter
}

func New() *Q { return &Q{ch: make(chan int, 8)} }

func (q *Q) Push(v int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.ch <- v
}

func (q *Q) Run() {
	go func() {
		for v := range q.ch {
			q.cnt.Add(v)
		}
	}()
}
`,
		"app/app.go": `package app

import (
	"time"

	"benchmod/core"
	"benchmod/queue"
)

func Main() int {
	q := queue.New()
	q.Run()
	for i := 0; i < 4; i++ {
		q.Push(i)
	}
	time.Sleep(time.Millisecond)
	var c core.Counter
	c.Add(1)
	return c.Get()
}
`,
	}
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	return root
}

// BenchmarkLintColdVsWarm measures the lint driver end to end: cold
// runs the full pipeline (go list, export-data listing, load,
// type-check, every analyzer in lint.All()) into an empty cache; warm
// replays the same run against a primed cache, which reduces to one go
// list plus content hashing — no parsing, no type-checking, no
// analysis. The cold/warm ratio is the headline number for the cache.
func BenchmarkLintColdVsWarm(b *testing.B) {
	root := benchCheckModule(b)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cacheDir, err := os.MkdirTemp("", "lintcache")
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, _, err := lint.Check(lint.CheckOptions{Dir: root, CacheDir: cacheDir}); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			os.RemoveAll(cacheDir)
			b.StartTimer()
		}
	})
	b.Run("warm", func(b *testing.B) {
		cacheDir := filepath.Join(root, ".lintcache")
		if _, _, err := lint.Check(lint.CheckOptions{Dir: root, CacheDir: cacheDir}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, hit, err := lint.Check(lint.CheckOptions{Dir: root, CacheDir: cacheDir})
			if err != nil {
				b.Fatal(err)
			}
			if !hit {
				b.Fatal("warm iteration missed the cache")
			}
		}
	})
}

// BenchmarkSuite runs the whole analyzer suite over one package, the
// unit of work `make lint` pays once per package in the module.
func BenchmarkSuite(b *testing.B) {
	prog, pkg := loadBenchProgram(b, "nilfacade")
	all := lint.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range all {
			if _, err := prog.RunPackage(pkg, a); err != nil {
				b.Fatal(err)
			}
		}
	}
}
