// Package core is a fixture stub of the facade types nilfacade
// tracks; matching is by type name so the stub exercises the real
// paths.
package core

import "errors"

type Profile struct {
	Visits int
}

func (p *Profile) Anchor() int { return p.Visits }

type Detector struct {
	fed int
}

func (d *Detector) Feed(x int) { d.fed += x }

type Adversary struct {
	N int
}

type Config struct {
	Users int
}

// NewDetector fails on nil input.
func NewDetector(p *Profile) (*Detector, error) {
	if p == nil {
		return nil, errors.New("core: nil reference profile")
	}
	return &Detector{}, nil
}
