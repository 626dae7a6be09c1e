// Package app is the test-file fixture: the loader must hand analyzers
// this package once, together with its in-package and external test
// files.
package app

import "fmt"

// Wrap flattens an error in production code.
func Wrap(err error) error {
	return fmt.Errorf("app: %v", err) // want `error formatted with %v loses the error chain`
}

// WrapWire is a suppressed site: listed once in the -json report.
func WrapWire(err error) error {
	//lint:allow errwrap the flattened message is part of the wire format
	return fmt.Errorf("wire: %v", err)
}
