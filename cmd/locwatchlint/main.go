// Command locwatchlint runs locwatch's domain lint suite (see
// internal/lint) over the packages matching the given patterns:
//
//	locwatchlint [flags] [packages]
//
// With no patterns it checks ./... relative to the enclosing module.
// The exit status is 0 when the suite is clean, 1 when any active
// finding is reported, and 2 on usage or load errors. Findings
// silenced by //lint:ignore directives or matched by the baseline are
// not active: they keep showing up in json and sarif output (SARIF
// carries them as suppressions) but do not fail the run.
//
// Flags:
//
//	-format f     output format: text (default), json, or sarif
//	              (SARIF 2.1.0 with witness paths as relatedLocations
//	              and suppressed findings as suppressions)
//	-disable a,b  skip the named analyzers
//	-baseline f   read an accepted-findings baseline: matched findings
//	              are demoted to suppressed; entries nothing matched
//	              are reported as stale so the ledger cannot rot
//	-prune-baseline  with -baseline, rewrite the file without its
//	              stale entries after the run
//	-write-baseline f  instead of failing, record the current active
//	              findings as the new baseline and exit 0
//	-cache-dir d  cache the run's findings under d, keyed by the
//	              toolchain, the analyzer roster and the source bytes of
//	              every listed package: an unchanged tree replays them
//	              without loading anything
//	-list         print the analyzer suite and exit
//	-graph s      instead of linting, dump the call-graph slice reachable
//	              from functions whose qualified name contains s — the
//	              debugging companion to detreach/spawnleak findings
//	-graph-format dot (default) or json; json includes the function
//	              summaries (may-return-nil, calls-clock, spawns)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"locwatch/internal/lint"
	"locwatch/internal/lint/analysis"
	"locwatch/internal/lint/loader"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("locwatchlint: ")

	format := flag.String("format", "text", "output format: text, json, or sarif")
	disable := flag.String("disable", "", "comma-separated analyzer names to skip")
	baselinePath := flag.String("baseline", "", "accepted-findings baseline file to read")
	pruneBaseline := flag.Bool("prune-baseline", false, "with -baseline, rewrite the file without stale entries")
	writeBaseline := flag.String("write-baseline", "", "record current findings to this baseline file and exit 0")
	cacheDir := flag.String("cache-dir", "", "cache the run's findings under this directory")
	list := flag.Bool("list", false, "print the analyzer suite and exit")
	graphRoot := flag.String("graph", "", "dump the call graph reachable from functions whose qualified name contains this substring, then exit")
	graphFormat := flag.String("graph-format", "dot", "call-graph dump format: dot or json")
	flag.Parse()

	if *format != "text" && *format != "json" && *format != "sarif" {
		log.Printf("unknown -format %q (want text, json, or sarif)", *format)
		os.Exit(2)
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*disable)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	root, err := loader.ModuleRoot(".")
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	if *graphRoot != "" {
		// The debugging path loads eagerly — a graph dump wants the
		// whole program regardless of what the cache knows.
		mod, err := loader.GoListDeps(root, flag.Args()...)
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		ld, pkgs, err := mod.Load()
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		prog := lint.BuildProgram(pkgs, ld.Package)
		if err := dumpGraph(os.Stdout, prog, *graphRoot, *graphFormat); err != nil {
			log.Print(err)
			os.Exit(2)
		}
		return
	}

	findings, _, err := lint.Check(lint.CheckOptions{
		Dir:       root,
		Patterns:  flag.Args(),
		Analyzers: analyzers,
		CacheDir:  *cacheDir,
	})
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	if *baselinePath != "" {
		bf, err := os.Open(*baselinePath)
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		base, err := lint.ReadBaseline(bf)
		_ = bf.Close() // read-only; nothing to act on
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		base.Apply(root, findings)
		stale := base.Stale()
		for _, e := range stale {
			log.Printf("stale baseline entry: %s (%s: %s)", e.Fingerprint, e.Analyzer, e.Message)
		}
		if *pruneBaseline && len(stale) > 0 {
			out, err := os.Create(*baselinePath)
			if err != nil {
				log.Print(err)
				os.Exit(2)
			}
			werr := base.WritePruned(out)
			if cerr := out.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				log.Print(werr)
				os.Exit(2)
			}
			log.Printf("pruned %d stale entr%s from %s", len(stale),
				map[bool]string{true: "y", false: "ies"}[len(stale) == 1], *baselinePath)
		}
	}
	if *writeBaseline != "" {
		out, err := os.Create(*writeBaseline)
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		werr := lint.WriteBaseline(out, root, findings)
		if cerr := out.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			log.Print(werr)
			os.Exit(2)
		}
		active := 0
		for _, f := range findings {
			if f.Active() {
				active++
			}
		}
		log.Printf("wrote %d finding(s) to %s", active, *writeBaseline)
		return
	}

	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			log.Print(err)
			os.Exit(2)
		}
	case "sarif":
		if err := writeSARIF(os.Stdout, root, analyzers, findings); err != nil {
			log.Print(err)
			os.Exit(2)
		}
	default:
		for _, f := range findings {
			if f.Active() {
				fmt.Println(f)
			}
		}
	}
	for _, f := range findings {
		if f.Active() {
			os.Exit(1)
		}
	}
}

// selectAnalyzers returns the suite minus the disabled names.
func selectAnalyzers(disable string) ([]*analysis.Analyzer, error) {
	disabled := make(map[string]bool)
	for _, name := range strings.Split(disable, ",") {
		if name = strings.TrimSpace(name); name != "" {
			disabled[name] = true
		}
	}
	var out []*analysis.Analyzer
	for _, a := range lint.All() {
		if disabled[a.Name] {
			delete(disabled, a.Name)
			continue
		}
		out = append(out, a)
	}
	if len(disabled) > 0 {
		var unknown []string
		for name := range disabled {
			unknown = append(unknown, name)
		}
		return nil, fmt.Errorf("unknown analyzer(s) in -disable: %s", strings.Join(unknown, ", "))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("all analyzers disabled")
	}
	return out, nil
}
