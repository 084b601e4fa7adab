// Command privacyeval regenerates the paper's evaluation section
// (Table III and Figures 2–5) plus this reproduction's ablations, over
// the synthetic GeoLife-scale world.
//
// Usage:
//
//	privacyeval [-exp all|fig2|fig3|fig4|fig5|ablation] [-quick]
//	            [-users N] [-days N] [-seed N] [-workers N]
//	            [-cpuprofile f] [-memprofile f]
//	            [-metrics-addr host:port] [-trace-out f]
//
// The default is the paper-scale configuration (182 users, 14 days),
// which takes a few minutes; -quick runs a reduced world. The pprof
// flags capture profiles of whatever experiment selection runs;
// profiles are written on clean completion only.
//
// -metrics-addr serves /metrics (Prometheus text), /debug/vars
// (JSON), and net/http/pprof for the duration of the run; -trace-out
// writes the span trace as JSON on clean completion. Either flag
// enables instrumentation; both are observe-only and never change the
// emitted tables (DESIGN.md §8).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"locwatch/internal/experiments"
	"locwatch/internal/obs"
)

// emit writes one rendered section, aborting on write error so a
// truncated report is never mistaken for a complete one.
func emit(format string, args ...any) {
	if _, err := fmt.Fprintf(os.Stdout, format, args...); err != nil {
		log.Fatalf("write report: %v", err)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("privacyeval: ")

	exp := flag.String("exp", "all", "experiment: all, fig2, fig3, fig4, fig5, combined, ablation")
	quick := flag.Bool("quick", false, "reduced world (24 users, 8 days)")
	users := flag.Int("users", 0, "override population size")
	days := flag.Int("days", 0, "override simulated days")
	seed := flag.Int64("seed", 0, "override world seed")
	workers := flag.Int("workers", 0, "concurrent per-user tasks (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars and pprof on this address")
	traceOut := flag.String("trace-out", "", "write the span trace as JSON to this file on exit")
	flag.Parse()

	var reg *obs.Registry
	if *metricsAddr != "" || *traceOut != "" {
		reg = obs.NewRegistry()
	}
	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatalf("metrics server: %v", err)
		}
		log.Printf("serving metrics on http://%s/metrics", srv.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				log.Printf("metrics server shutdown: %v", err)
			}
		}()
	}
	// Registered before the lab so it runs after the lab's deferred
	// Close, which ends the root span. log.Fatal exits without running
	// defers, so like the profiles the trace is written on clean
	// completion only.
	defer func() {
		if *traceOut == "" {
			return
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("trace out: %v", err)
		}
		if err := reg.Tracer().WriteJSON(f); err != nil {
			log.Fatalf("trace out: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("close trace out: %v", err)
		}
	}()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cpu profile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpu profile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatalf("close cpu profile: %v", err)
			}
		}()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("heap profile: %v", err)
		}
		runtime.GC() // settle allocations so the profile shows live heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("heap profile: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("close heap profile: %v", err)
		}
	}()

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *users > 0 {
		cfg.Mobility.Users = *users
	}
	if *days > 0 {
		cfg.Mobility.Days = *days
	}
	if *seed != 0 {
		cfg.Mobility.Seed = *seed
	}
	cfg.Workers = *workers
	cfg.Obs = reg

	lab, err := experiments.NewLab(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer lab.Close()
	ran := false
	run := func(name string, fn func() (interface{ Render() string }, error)) {
		ran = true
		sp := reg.Tracer().Start(name)
		start := time.Now()
		r, err := fn()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		sp.End()
		// The time goes to stderr, so stdout depends only on the inputs.
		log.Printf("%s: %v", name, time.Since(start).Round(time.Second))
		emit("=== %s ===\n%s\n", name, r.Render())
	}

	want := func(name string) bool { return *exp == "all" || strings.EqualFold(*exp, name) }

	if want("fig2") {
		run("Table III / Figure 2", func() (interface{ Render() string }, error) {
			return experiments.Figure2(lab)
		})
	}
	if want("fig3") {
		run("Figure 3", func() (interface{ Render() string }, error) {
			report, err := experiments.MarketStudy(cfg)
			if err != nil {
				return nil, err
			}
			return experiments.Figure3(lab, report)
		})
	}
	if want("fig4") {
		run("Figure 4", func() (interface{ Render() string }, error) {
			return experiments.Figure4(lab)
		})
	}
	if want("fig5") {
		run("Figure 5", func() (interface{ Render() string }, error) {
			return experiments.Figure5(lab)
		})
	}
	if want("combined") {
		run("Combined detector (paper's conclusion)", func() (interface{ Render() string }, error) {
			return experiments.Combined(lab)
		})
	}
	if want("ablation") {
		run("Ablation: extractor", func() (interface{ Render() string }, error) {
			return experiments.AblationExtractor(lab)
		})
		run("Ablation: defenses", func() (interface{ Render() string }, error) {
			return experiments.AblationMitigation(lab)
		})
		run("Ablation: adversary weighting", func() (interface{ Render() string }, error) {
			return experiments.AblationWeighting(lab)
		})
		run("Ablation: chi-square tail", func() (interface{ Render() string }, error) {
			return experiments.AblationTail(lab)
		})
		run("Ablation: k-anonymity cloaking", func() (interface{ Render() string }, error) {
			return experiments.AblationCloaking(lab)
		})
		run("Ablation: time to confusion", func() (interface{ Render() string }, error) {
			return experiments.AblationTracking(lab)
		})
	}
	if !ran {
		log.Fatalf("unknown -exp %q (want all, fig2, fig3, fig4, fig5, combined, ablation)", *exp)
	}
}
