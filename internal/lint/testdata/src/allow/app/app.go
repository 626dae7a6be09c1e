// Package app is the suppression-directive fixture: //lint:allow must
// silence the named analyzer on its line (or the line below, or its
// whole declaration from a doc comment), and a directive that cannot
// do its job — no reason, no finding to suppress, no such analyzer —
// is itself a finding.
package app

import (
	"errors"
	"fmt"
)

var ErrBusy = errors.New("busy")

// Suppressed on the same line.
func sameLine(err error) bool {
	return err == ErrBusy //lint:allow errwrap this call site predates wrapping and is covered by tests
}

// Suppressed from the line above.
func lineAbove(err error) error {
	//lint:allow errwrap the flattened message is part of the wire format
	return fmt.Errorf("busy: %v", err)
}

//lint:allow errwrap the whole comparison table below is deliberate
func declWide(err error) bool {
	if err == ErrBusy {
		return true
	}
	return err != ErrBusy
}

// A directive that names no reason is rejected, and does not suppress.
func missingReason(err error) bool {
	return err == ErrBusy //lint:allow errwrap // want `comparing an error to sentinel ErrBusy` // want `lint:allow directive must name an analyzer and give a reason`
}

// Naming a different analyzer does not suppress this one, and leaves
// the directive with nothing to suppress.
func wrongAnalyzer(err error) bool {
	return err == ErrBusy //lint:allow determinism not about clocks at all // want `comparing an error to sentinel ErrBusy` // want `lint:allow determinism suppresses no finding`
}

// Naming an analyzer the suite does not have is a dead directive too.
func retiredAnalyzer(err error) error {
	return err //lint:allow atomicswap the analyzer was retired // want `lint:allow names atomicswap, which is no analyzer in the suite`
}
