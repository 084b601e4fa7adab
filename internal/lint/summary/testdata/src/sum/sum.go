// Package sum is the summary-pass unit-test fixture: may-nil results
// and the error correlation.
package sum

import "errors"

type T struct{}

// MaybeNil has a nil path; Wraps inherits it; Fresh never returns nil.
func MaybeNil(ok bool) *T {
	if !ok {
		return nil
	}
	return &T{}
}

func Wraps(ok bool) *T {
	return MaybeNil(ok)
}

func Fresh() *T {
	return &T{}
}

// NewChecked returns nil only alongside a non-nil error.
func NewChecked(ok bool) (*T, error) {
	if !ok {
		return nil, errors.New("sum: no")
	}
	return &T{}, nil
}

// Uncorrelated breaks the contract: nil pointer, nil error.
func Uncorrelated() (*T, error) {
	return nil, nil
}

// BareNamed returns the zero value of its named result.
func BareNamed() (p *T) {
	return
}
