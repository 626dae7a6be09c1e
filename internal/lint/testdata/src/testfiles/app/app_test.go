package app

import (
	"errors"
	"fmt"
	"testing"
)

func TestWrap(t *testing.T) {
	cause := errors.New("cause")
	err := fmt.Errorf("in test: %v", cause) // want `error formatted with %v loses the error chain`
	if errors.Is(Wrap(err), cause) {
		t.Fatal("Wrap kept the chain")
	}
	//lint:allow errwrap // want `lint:allow directive must name an analyzer and give a reason`
	_ = WrapWire(err)
}
