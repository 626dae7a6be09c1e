// Package app violates the errwrap and retrypolicy invariants in one
// compact file; the longtailvet integration test
// asserts this module's exact diagnostic set.
package app

import (
	"errors"
	"fmt"
	"time"
)

// ErrBusy is a sentinel.
var ErrBusy = errors.New("busy")

// Wrap flattens an error with %v.
func Wrap(err error) error {
	return fmt.Errorf("ingest: %v", err)
}

// IsBusy compares a sentinel with ==.
func IsBusy(err error) bool {
	return err == ErrBusy
}

// WaitBusy hand-rolls a sleep-retry loop.
func WaitBusy(do func() error) {
	for IsBusy(do()) {
		time.Sleep(50 * time.Millisecond)
	}
}
