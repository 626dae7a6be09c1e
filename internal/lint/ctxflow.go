package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/lintkit"
)

// Ctxflow enforces context propagation on request paths. In the scoped
// packages (ctxflowPkgs: serve, cluster, lifecycle — the layers that
// forward requests, hand off ownership, and pace rescans), any
// function that receives a context.Context or *http.Request is on a
// request path, and on a request path:
//
//   - calling context.Background() or context.TODO() severs the
//     caller's deadline and cancellation — derive from the incoming
//     context instead. The one sanctioned shape is the nil-guard
//     fallback `if ctx == nil { ctx = context.Background() }`;
//   - calling an in-module function that roots a fresh context itself
//     and accepts no context parameter drops the deadline one hop
//     down. This leg is interprocedural: the callee's behavior comes
//     from the cross-package facts, so the finding lands on the call
//     site in the package under analysis.
//
// Functions without a context or request parameter (startup wiring,
// free-running daemons) may root contexts freely.
var Ctxflow = &lintkit.Analyzer{
	Name: "ctxflow",
	Doc:  "request paths must propagate the caller's context; no context.Background/TODO or deadline-dropping callees",
	Run:  runCtxflow,
}

const ctxflowPkgs = "serve,cluster,lifecycle"

func runCtxflow(pass *lintkit.Pass) error {
	if !pkgInScope(pass.Path, ctxflowPkgs) {
		return nil
	}
	for _, f := range pass.Files {
		if lintkit.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasCtxParam(pass, fd.Type) {
				continue
			}
			checkCtxFlow(pass, fd)
		}
	}
	return nil
}

// hasCtxParam reports whether the signature carries a context.Context
// or *http.Request parameter.
func hasCtxParam(pass *lintkit.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		t := pass.TypeOf(field.Type)
		if typeIsContext(t) || typeIsRequestPtr(t) {
			return true
		}
	}
	return false
}

// typeIsRequestPtr reports whether t is *net/http.Request.
func typeIsRequestPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request"
}

func checkCtxFlow(pass *lintkit.Pass, fd *ast.FuncDecl) {
	guards := ctxNilGuardSpans(pass, fd.Body)
	inGuard := func(pos token.Pos) bool {
		for _, r := range guards {
			if pos >= r[0] && pos <= r[1] {
				return true
			}
		}
		return false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var callee *types.Func
		switch f := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			callee, _ = pass.Info.Uses[f].(*types.Func)
		case *ast.SelectorExpr:
			callee, _ = pass.Info.Uses[f.Sel].(*types.Func)
		}
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		if callee.Pkg().Path() == "context" && (callee.Name() == "Background" || callee.Name() == "TODO") {
			if !inGuard(call.Pos()) {
				pass.Reportf(call.Pos(),
					"context.%s() in %s severs the caller's deadline and cancellation on a request path; derive from the incoming context",
					callee.Name(), fd.Name.Name)
			}
			return true
		}
		if pass.Facts == nil {
			return true
		}
		key := lintkit.CanonFuncName(callee)
		if key == "" {
			return true
		}
		if ff := pass.Facts.Func(key); ff != nil && ff.RootsCtx && !ff.CtxParam {
			pass.Reportf(call.Pos(),
				"call drops the request context: %s roots a fresh context (%s:%d) and accepts none — thread the context through",
				shortFunc(key), lintkit.PathBase(ff.RootsFile), ff.RootsLine)
		}
		return true
	})
}

// ctxNilGuardSpans collects the body ranges of `if ctx == nil { ... }`
// blocks — the sanctioned place to root a fallback context.
func ctxNilGuardSpans(pass *lintkit.Pass, body *ast.BlockStmt) [][2]token.Pos {
	var spans [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op != token.EQL {
			return true
		}
		for _, pair := range [][2]ast.Expr{{cond.X, cond.Y}, {cond.Y, cond.X}} {
			if isNilIdent(pair[1]) && typeIsContext(pass.TypeOf(pair[0])) {
				spans = append(spans, [2]token.Pos{ifs.Body.Pos(), ifs.Body.End()})
			}
		}
		return true
	})
	return spans
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}
