// Command locwatchlint runs locwatch's domain lint suite (see
// internal/lint) over the packages matching the given patterns:
//
//	locwatchlint [flags] [packages]
//
// With no patterns it checks ./... relative to the enclosing module.
// The exit status is 0 when the suite is clean, 1 when any active
// finding is reported, and 2 on usage or load errors. Findings
// silenced by //lint:ignore directives are not active: they keep
// showing up in json and sarif output (SARIF carries them as
// suppressions) but do not fail the run.
//
// Flags:
//
//	-format f  output format: text (default), json, or sarif
//	           (SARIF 2.1.0 with suppressed findings as suppressions)
//	-list      print the analyzer suite and exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"locwatch/internal/lint"
	"locwatch/internal/lint/loader"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("locwatchlint: ")

	format := flag.String("format", "text", "output format: text, json, or sarif")
	list := flag.Bool("list", false, "print the analyzer suite and exit")
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

	root, err := loader.ModuleRoot(".")
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	findings, err := lint.Check(lint.CheckOptions{Dir: root, Patterns: flag.Args()})
	if err != nil {
		log.Print(err)
		os.Exit(2)
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
		if err := writeSARIF(os.Stdout, root, lint.All(), findings); err != nil {
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
