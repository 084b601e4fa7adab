package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// cpuLayers are the buckets a CPU profile rolls up into, reported as
// <layer>.cpu_s: the locwatch packages that make up the pipeline, json
// and net for the service's wire path, gc for the garbage collector's
// background work, runtime for the rest of the Go runtime's own work
// (scheduling, timers, profiling itself), and other.
var cpuLayers = []string{
	"experiments", "market", "mobility", "mitigation", "trace", "anonymize",
	"poi", "core", "geoidx", "geo", "stats", "stream",
	"json", "net", "gc", "runtime", "other",
}

// transparent packages do generic work for their caller (arithmetic,
// sorting, formatting, reflection, buffering), so their frames are
// charged to the first caller outside them: math.Sincos under
// mobility's noise model is mobility's time. Runtime frames are
// charged the same way, so allocating is the allocating layer's time.
var transparent = map[string]bool{
	"bufio": true, "bytes": true, "cmp": true, "container/heap": true,
	"errors": true, "fmt": true, "hash": true, "hash/fnv": true,
	"io": true, "iter": true, "maps": true,
	"math": true, "math/bits": true, "math/rand": true, "reflect": true,
	"slices": true, "sort": true, "strconv": true, "strings": true,
	"sync": true, "sync/atomic": true, "time": true, "unicode": true,
	"unicode/utf8": true, "unicode/utf16": true,
}

// isRuntime reports the runtime's own packages, the standard
// library's internal ones, and "" for the unqualified assembly helpers
// (write barriers, hashing, memory compare) a profile names bare.
func isRuntime(pkg string) bool {
	return pkg == "" || pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/")
}

// funcPackage is the import path of a symbolized Go function name such
// as "locwatch/internal/poi.(*Extractor).Feed" or
// "slices.SortFunc[go.shape.int]"; "" if the name has none.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return ""
}

// layerOf maps a package to its bucket; ok is false for packages whose
// frames are charged to their caller.
func layerOf(pkg string) (layer string, ok bool) {
	switch {
	case pkg == "encoding/json":
		return "json", true
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "syscall" ||
		pkg == "internal/poll" || strings.HasPrefix(pkg, "vendor/golang.org/x/net/"):
		return "net", true
	case transparent[pkg] || isRuntime(pkg):
		return "", false
	}
	if rest, found := strings.CutPrefix(pkg, "locwatch/internal/"); found {
		name, _, _ := strings.Cut(rest, "/")
		for _, l := range cpuLayers {
			if l == name {
				return l, true
			}
		}
	}
	return "other", true
}

// stackLayer charges one sample's stack (leaf first) to a layer: gc if
// the background mark worker is on it, else the innermost frame's
// layer after skipping frames charged to their caller, else runtime
// when the whole stack is the runtime's.
func stackLayer(frames []string) string {
	for _, fn := range frames {
		if fn == "runtime.gcBgMarkWorker" {
			return "gc"
		}
	}
	all := len(frames) > 0
	for _, fn := range frames {
		pkg := funcPackage(fn)
		if l, ok := layerOf(pkg); ok {
			return l
		}
		all = all && isRuntime(pkg)
	}
	if all {
		return "runtime"
	}
	return "other"
}

var (
	sampleLine   = regexp.MustCompile(`^\s*\d+\s+(\d+):((?:\s+\d+)*)\s*$`)
	locationLine = regexp.MustCompile(`^\s*(\d+): 0x[0-9a-f]+ M=\d+ (.*?)\s+\S+:\d+:\d+ s=\d+$`)
	inlineLine   = regexp.MustCompile(`^\s+(.*?)\s+\S+:\d+:\d+ s=\d+$`)
)

// rollup sums the CPU samples of a `go tool pprof -raw` listing by
// layer, in seconds, and returns the profile's total CPU. Every
// sample lands in exactly one bucket, and the sum is checked against
// the total so a listing this parser misreads fails loudly.
func rollup(raw []byte) (map[string]float64, float64, error) {
	type stack struct {
		ns   int64
		locs []string
	}
	var samples []stack
	frames := map[string][]string{} // location id -> functions, leaf first
	section, cur := "", ""
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch line {
		case "Samples:", "Locations", "Mappings":
			section = line
			continue
		}
		switch section {
		case "Samples:":
			if m := sampleLine.FindStringSubmatch(line); m != nil {
				ns, err := strconv.ParseInt(m[1], 10, 64)
				if err != nil {
					return nil, 0, err
				}
				samples = append(samples, stack{ns: ns, locs: strings.Fields(m[2])})
			}
		case "Locations":
			if m := locationLine.FindStringSubmatch(line); m != nil {
				cur = m[1]
				frames[cur] = append(frames[cur], m[2])
			} else if m := inlineLine.FindStringSubmatch(line); m != nil && cur != "" {
				frames[cur] = append(frames[cur], m[1])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if section == "" {
		return nil, 0, fmt.Errorf("not a pprof -raw listing")
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 0
	}
	var total, sum float64
	for _, s := range samples {
		var fs []string
		for _, id := range s.locs {
			fs = append(fs, frames[id]...)
		}
		secs := float64(s.ns) / 1e9
		total += secs
		out[stackLayer(fs)] += secs
	}
	for _, v := range out {
		sum += v
	}
	if math.Abs(sum-total) > 0.05*total {
		return nil, 0, fmt.Errorf("layer rollup sums to %.3fs of %.3fs profiled", sum, total)
	}
	return out, total, nil
}

// profileLayers rolls up one CPU profile file.
func profileLayers(ctx context.Context, path string) (map[string]float64, float64, error) {
	raw, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-raw", "-symbolize=none", path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof -raw %s: %w", path, err)
	}
	return rollup(raw)
}
