// Package lint is longtailvet: the project-specific static-analysis
// suite that mechanically enforces the conventions the reproduction's
// correctness rests on. The paper's Table I–XVII numbers only reproduce
// if every pipeline stage is byte-deterministic from a seed, and the
// serving layer's exactly-once contract only holds if journal appends
// and lock-guarded state are touched the way their comments promise.
// Each analyzer encodes one such invariant so tier-1 (TestTreeClean)
// and `make lint` catch violations before review does:
//
//	determinism  — no wall clock, global PRNG, or unsorted map
//	              iteration feeding output inside the deterministic core
//	lockguard    — fields annotated `// guarded by <mu>` are only
//	              accessed with the lock held
//	journalorder — no response bytes leave before the batch is durable
//	              on the same path: a deferred batch's accept, a direct
//	              one's Result
//	retrypolicy  — no hand-rolled sleep-retry loops or raw http.Client
//	              construction outside the retry/serve layers
//	errwrap      — errors wrap with %w and compare with errors.Is
//
// Two analyzers are interprocedural, built on lintkit's cross-package
// facts (per-package summaries the loader computes for the whole
// module — see lintkit/facts.go):
//
//	lockorder    — the global mutex-acquisition graph is acyclic; no
//	              double locks
//	metricdrift  — longtail_* metric names are snake_case, uniquely
//	              spelled tree-wide, and documented
//
// Goroutine lifetimes and context propagation are held by plain tests
// (internal/leaktest and the cancellation tests in serve, cluster and
// lifecycle); DESIGN.md §10 has the trial that decided so.
//
// Copies of lock- and atomic-bearing values are left to `go vet`'s
// copylocks, which tier-1 runs; testdata/src/copylocks pins that.
//
// Intentional exceptions carry `//lint:allow <analyzer> <reason>`
// (reason mandatory, and a directive that suppresses nothing is itself
// a finding — see lintkit). The suite runs one way: `longtailvet
// [-json] ./...`, test files included.
package lint

import (
	"go/ast"
	"strings"

	"repro/internal/lint/lintkit"
)

// Suite returns the full analyzer set in reporting order.
func Suite() []*lintkit.Analyzer {
	return []*lintkit.Analyzer{
		Determinism,
		Lockguard,
		Lockorder,
		Metricdrift,
		JournalOrder,
		RetryPolicy,
		ErrWrap,
	}
}

// pkgInScope reports whether the package's path base is one of the
// comma-separated base names in list.
func pkgInScope(path, list string) bool {
	base := lintkit.PathBase(path)
	for _, want := range strings.Split(list, ",") {
		if strings.TrimSpace(want) == base {
			return true
		}
	}
	return false
}

// inspectStack walks the tree rooted at n, calling fn with each node
// and the stack of its ancestors (outermost first, not including n).
// fn returning false prunes the subtree.
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		ok := fn(n, stack)
		stack = append(stack, n)
		if !ok {
			// Still push/pop symmetrically: returning false means the
			// walker will not descend, so pop immediately.
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// calleeObjOf returns the called function's use identifier for a call
// expression of the form pkg.F(...) or x.M(...), or nil.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}
