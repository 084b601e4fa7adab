// Package privlog is locwatch's categorized, privacy-scrubbed error
// and logging layer. The paper's threat model is raw location data
// escaping an app's boundary through side channels — logs, error
// strings, debug output — so this repository holds its own diagnostics
// to the standard it measures: nothing that leaves the process through
// privlog carries a raw coordinate.
//
// Two halves, one contract:
//
//   - Scrubbing. Scrub and friends redact location-bearing values to
//     precision-bounded forms (~1.1 km by default, the granularity
//     degradation Narain & Noubir treat as a sanitizer). ScrubArgs
//     walks a formatting argument list and replaces every geo.LatLon,
//     geo.BoundingBox, trace.Point (and anything implementing
//     LocationScrubber) with its redacted rendering — so even a caller
//     that forgets to scrub cannot push a raw coordinate through a
//     privlog formatting function.
//   - Categorized errors. New builds errors carrying a component
//     and a Category (config, parse, io, network, sim, internal), with
//     optional key/value context; context values pass through Scrub.
//     The result unwraps normally, so errors.Is/As keep working (the
//     package re-exports them to keep a single errors import).
//
// The promise is tested where bytes leave the process, black-box:
// FindLeaks searches an exit's output for the positions that went in,
// and exit tests run it over locwatchd's responses, diagnostic
// endpoints and logs (internal/stream), the errors core and the
// facade return for bad input, and privacyeval's stdout, metrics and
// span record (internal/experiments). cmd/poiextract prints place
// positions on purpose (geo.LatLon.String); that output is its
// product, not a diagnostic.
package privlog

import (
	"errors"
	"fmt"
	"strings"
)

// Category classifies an error or log line for triage and for the
// aggregate error counters an ops layer may keep. The zero value is
// CategoryInternal.
type Category int

const (
	// CategoryInternal is the default: a bug or invariant violation.
	CategoryInternal Category = iota
	// CategoryConfig marks invalid user-supplied configuration.
	CategoryConfig
	// CategoryParse marks malformed external input (PLT files,
	// dumpsys text, market pages).
	CategoryParse
	// CategoryIO marks file-system and stream failures.
	CategoryIO
	// CategoryNetwork marks socket/HTTP failures.
	CategoryNetwork
	// CategorySim marks simulation-pipeline failures (trace
	// generation, extraction, detection).
	CategorySim

	numCategories // count sentinel — not a real member
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CategoryInternal:
		return "internal"
	case CategoryConfig:
		return "config"
	case CategoryParse:
		return "parse"
	case CategoryIO:
		return "io"
	case CategoryNetwork:
		return "network"
	case CategorySim:
		return "sim"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Error is a categorized, scrubbed error. Build one with New; the zero
// value is not meaningful.
type Error struct {
	category  Category
	component string
	msg       string
	err       error // wrapped cause, may be nil
	context   []kv  // scrubbed key/value pairs, in attachment order
}

type kv struct {
	key string
	val string // already scrubbed at attachment time
}

// Error implements the error interface. Context renders as a trailing
// bracketed list so the primary message stays grep-friendly.
func (e *Error) Error() string {
	var b strings.Builder
	if e.component != "" {
		b.WriteString(e.component)
		b.WriteString(": ")
	}
	b.WriteString(e.msg)
	if e.err != nil {
		if e.msg != "" {
			b.WriteString(": ")
		}
		b.WriteString(e.err.Error())
	}
	b.WriteString(" [")
	b.WriteString(e.category.String())
	for _, c := range e.context {
		b.WriteString(" ")
		b.WriteString(c.key)
		b.WriteString("=")
		b.WriteString(c.val)
	}
	b.WriteString("]")
	return b.String()
}

// Unwrap returns the wrapped cause, if any.
func (e *Error) Unwrap() error { return e.err }

// Category returns the error's category.
func (e *Error) Category() Category { return e.category }

// Component returns the component label, "" when unset.
func (e *Error) Component() string { return e.component }

// Context returns the scrubbed value attached under key, ok=false when
// the key was never attached.
func (e *Error) Context(key string) (string, bool) {
	for _, c := range e.context {
		if c.key == key {
			return c.val, true
		}
	}
	return "", false
}

// Builder accumulates an Error. Methods return the receiver for
// chaining; Build finalizes.
type Builder struct {
	e Error
}

// New starts a builder wrapping err (which may be nil for a message-
// only error).
func New(err error) *Builder {
	return &Builder{e: Error{err: err}}
}

// Component names the subsystem the error belongs to ("poi",
// "tracegen", "market"…).
func (b *Builder) Component(name string) *Builder {
	b.e.component = name
	return b
}

// Category sets the error category.
func (b *Builder) Category(c Category) *Builder {
	b.e.category = c
	return b
}

// Context attaches one key/value pair. The value is scrubbed at
// attachment time — location-bearing values are redacted, everything
// else renders with %v.
func (b *Builder) Context(key string, val any) *Builder {
	b.e.context = append(b.e.context, kv{key: key, val: fmt.Sprint(Scrub(val))})
	return b
}

// Build finalizes the error.
func (b *Builder) Build() error { return &b.e }

// Errorf is the one-line form: a categorized, component-less error
// with scrubbed formatting. Use the builder when a component or
// context belongs on it.
func Errorf(c Category, format string, args ...any) error {
	return &Error{category: c, msg: fmt.Sprintf(format, ScrubArgs(args)...)}
}

// Is, As and Unwrap are passthroughs to the standard errors package so
// callers need only one errors import (the birdnet-go idiom this
// package follows).
func Is(err, target error) bool { return errors.Is(err, target) }

// As is a passthrough to errors.As.
func As(err error, target any) bool { return errors.As(err, target) }

// Unwrap is a passthrough to errors.Unwrap.
func Unwrap(err error) error { return errors.Unwrap(err) }

// CategoryOf returns the Category of err when it is (or wraps) a
// privlog error, CategoryInternal and ok=false otherwise.
func CategoryOf(err error) (Category, bool) {
	var e *Error
	if errors.As(err, &e) {
		return e.category, true
	}
	return CategoryInternal, false
}
