// Fixtures for the errflow analyzer: error results dead on every path
// (dropped in expression statements, or overwritten before any read)
// are flagged; handled, explicitly discarded, and excluded-writer
// errors are not.
package errflow

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
)

func work() error         { return errors.New("boom") }
func fetch() (int, error) { return 0, errors.New("boom") }

type sink struct{}

func (sink) flush() error { return nil }

// droppedCall discards work's error in an expression statement.
func droppedCall() {
	work() // want `error result of errflow.work is dropped`
}

// droppedWriter drops a write error to a real io.Writer — the
// output-writing bug cmd/lpwdumpsys had.
func droppedWriter(w io.Writer) {
	fmt.Fprintf(w, "report\n") // want `error result of fmt.Fprintf is dropped`
}

// droppedDefer abandons the flush error at function exit.
func droppedDefer(s sink) {
	defer s.flush() // want `error result of \(errflow.sink\).flush is dropped`
}

// overwrittenBeforeRead: the first error is dead on every path — the
// compiler cannot catch this, only flow analysis can.
func overwrittenBeforeRead() error {
	err := work() // want `error assigned to err is never read`
	err = work()
	return err
}

// abandonedOnReturn assigns an error and returns something else.
func abandonedOnReturn() int {
	n, err := fetch() // want `error assigned to err is never read`
	err = nil
	_ = err
	return n
}

// handled consumes the error on every path.
func handled() int {
	n, err := fetch()
	if err != nil {
		return -1
	}
	return n
}

// explicitDiscard states intent with the blank identifier.
func explicitDiscard() {
	_ = work()
}

// stdoutConvention: fmt.Print* to stdout is excluded errcheck-style.
func stdoutConvention() {
	fmt.Println("status: ok")
	fmt.Fprintf(os.Stderr, "warning\n")
}

// inMemoryWriter: bytes.Buffer writes cannot fail.
func inMemoryWriter() string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "x=%d\n", 1)
	buf.WriteString("done")
	return buf.String()
}

// liveOnOnePath is NOT dead: the read happens on the else path, so the
// first assignment must stay silent ("every path" matters).
func liveOnOnePath(retry bool) error {
	err := work()
	if retry {
		err = work()
	}
	return err
}

// consumedByWrap reads the error in its own overwrite.
func consumedByWrap() error {
	err := work()
	err = fmt.Errorf("wrapped: %w", err)
	return err
}

// capturedByClosure is exempt: the closure reads it later.
func capturedByClosure() func() error {
	err := work()
	return func() error { return err }
}

type detector struct{ fed int }

func (d *detector) feed() { d.fed++ }

func newDetector(ok bool) (*detector, error) {
	if !ok {
		return nil, errors.New("no reference")
	}
	return &detector{}, nil
}

func lookup() (detector, error) { return detector{}, nil }

// discardedConstructorError uses a pointer whose constructor error was
// thrown away: the pointer is nil exactly when that error was set.
func discardedConstructorError(ok bool) int {
	d, _ := newDetector(ok) // want `error result of errflow.newDetector is discarded but d is used`
	d.feed()
	return d.fed
}

// discardedConstructorErrorAssign is the same through `=`.
func discardedConstructorErrorAssign(ok bool) int {
	var d *detector
	d, _ = newDetector(ok) // want `error result of errflow.newDetector is discarded but d is used`
	return d.fed
}

// discardedValueError returns a value, not a pointer: there is no nil
// to dereference.
func discardedValueError() int {
	d, _ := lookup()
	return d.fed
}

// checkedConstructor handles the error before the pointer is used.
func checkedConstructor(ok bool) int {
	d, err := newDetector(ok)
	if err != nil {
		return 0
	}
	return d.fed
}

// discardedFlag drops a bool, not an error.
func discardedFlag(m map[string]*detector) int {
	d, _ := m["x"]
	if d == nil {
		return 0
	}
	return d.fed
}
