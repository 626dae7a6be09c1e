package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/lintkit"
)

// RetryPolicy keeps transient-failure handling in one place. PR 1
// introduced internal/retry (bounded backoff with jitter, circuit
// breaker, retry budgets) precisely so the pipeline would not grow
// ad-hoc `for { ...; time.Sleep(d) }` loops — which retry forever,
// synchronize into thundering herds, and ignore context cancellation —
// and so HTTP transports stay decoratable by internal/faults. The
// analyzer therefore flags, outside the exempt packages
// (retrypolicyExempt: the two layers that implement the policy):
//
//   - time.Sleep inside any for/range loop — use retry.Do with a
//     Policy, which backs off, jitters and honors ctx;
//   - composite-literal construction of net/http.Client — use
//     serve.Client (whose Transport is the faults decoration point)
//     or accept an *http.Client from the caller.
var RetryPolicy = &lintkit.Analyzer{
	Name: "retrypolicy",
	Doc:  "forbid hand-rolled sleep-retry loops and raw http.Client construction outside internal/retry and internal/serve",
	Run:  runRetryPolicy,
}

const retrypolicyExempt = "retry,serve"

func runRetryPolicy(pass *lintkit.Pass) error {
	if pkgInScope(pass.Path, retrypolicyExempt) {
		return nil
	}
	for _, f := range pass.Files {
		if lintkit.IsTestFile(pass.Fset, f) {
			continue
		}
		inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkSleepInLoop(pass, n, stack)
			case *ast.CompositeLit:
				checkRawHTTPClient(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkSleepInLoop(pass *lintkit.Pass, call *ast.CallExpr, stack []ast.Node) {
	id := calleeIdent(call)
	if id == nil {
		return
	}
	obj := pass.Info.Uses[id]
	if qualifiedName(obj) != "time.Sleep" {
		return
	}
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			pass.Reportf(call.Pos(), "time.Sleep inside a loop is a hand-rolled retry/poll loop; use retry.Do with a Policy (backoff, jitter, ctx cancellation)")
			return
		case *ast.FuncLit:
			// A sleep inside a closure is attributed to the closure, not
			// the loop that happens to contain the closure's definition.
			return
		}
	}
}

func checkRawHTTPClient(pass *lintkit.Pass, lit *ast.CompositeLit) {
	t := pass.TypeOf(lit)
	if t == nil {
		return
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	if named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "net/http" && named.Obj().Name() == "Client" {
		pass.Reportf(lit.Pos(), "raw http.Client construction outside internal/retry and internal/serve bypasses the faults/retry decoration point; use serve.Client or accept an *http.Client")
	}
}
