package app_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/lint/testdata/src/testfiles/app"
)

func TestWrapExternal(t *testing.T) {
	cause := errors.New("cause")
	err := fmt.Errorf("in external test: %v", cause) // want `error formatted with %v loses the error chain`
	if app.Wrap(err) == nil {
		t.Fatal("Wrap dropped the error")
	}
}
