// Package serve seeds the cross-package analyzer's bug class, a
// misspelled metric, next to a suppressed one. The longtailvet
// integration test asserts the built binary catches the first and
// reports the second as suppressed.
package serve

import (
	"fmt"
	"net/http"
)

// Handler emits a camel-case metric.
func Handler(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintf(w, "longtail_Served_Total %d\n", 1)
	//lint:allow metricdrift legacy dashboard still scrapes the old name
	fmt.Fprintf(w, "longtail_Legacy_Rows %d\n", 1)
}
