package lintkit

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The per-package summarizer behind facts.go: one lexical walk over
// every function body producing the FuncFacts (lock events and the call
// graph under them) and the package's metric literals. The lock model
// is deliberately lexical, mirroring how the repo's code is written:
// Lock()/RLock() adds the mutex to the held set, a non-deferred
// Unlock() removes it, and `defer mu.Unlock()` keeps it held to the end
// of the body. That asymmetry matters: a function that locks, unlocks,
// and then calls into another lock's scope must NOT produce an ordering
// edge, or correct lock/unlock/call sequences would read as deadlocks.
// Two flow refinements temper the lexical rule, both at a `return`. It
// reverts deferred-release locks acquired inside the innermost block
// containing it, so the common early-return guard (`if err != nil {
// mu.Lock(); defer mu.Unlock(); ...; return }`) does not leave the lock
// "held" over the rest of the body; locks acquired in an outer block
// stay held — the fall-through path past a nested `if { return }`
// genuinely still holds them. And for the same reason it gives back the
// outer locks its own block released on the way out (`if done {
// mu.Unlock(); return }`): the code after the block is reached only by
// the path that never unlocked.

// canonFuncName returns the canonical facts key for a function object:
// "pkg/path.Func", or "pkg/path.Type.Method" for methods (pointer and
// value receivers collapse). Interface methods and unattributable
// functions return "" — dispatch through an interface is dropped, not
// widened, so every edge in the facts graph is a real static call.
func canonFuncName(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		named, ok := derefType(sig.Recv().Type()).(*types.Named)
		if !ok || types.IsInterface(named) || named.Obj().Pkg() == nil {
			return ""
		}
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

func derefType(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// metricNameRE matches longtail metric names embedded anywhere in a
// string literal (exposition format strings include labels and verbs).
var metricNameRE = regexp.MustCompile(`longtail_[A-Za-z0-9_]*`)

// SummarizePackage computes the facts for one typed package, path
// being its plain import path. Test files are excluded: facts describe
// production code only, so a package's test variant summarizes
// identically to the plain one.
func SummarizePackage(path string, fset *token.FileSet, files []*ast.File, info *types.Info) *PackageFacts {
	s := &summarizer{
		pf:   &PackageFacts{Path: path, Funcs: make(map[string]*FuncFact)},
		fset: fset,
		info: info,
	}
	metrics := make(map[string]MetricUse)
	for _, f := range files {
		if IsTestFile(fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := s.declName(fd)
			for base, n := name, 2; ; n++ {
				if _, dup := s.pf.Funcs[name]; !dup {
					break
				}
				name = base + "#" + strconv.Itoa(n)
			}
			s.summarizeFunc(name, fd.Type, fd.Body)
		}
		collectMetrics(fset, f, metrics)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s.pf.Metrics = append(s.pf.Metrics, metrics[n])
	}
	return s.pf
}

// collectMetrics records every longtail_* name in the file's string
// literals. The bare prefix "longtail_" (a HasPrefix filter, not a
// metric) is ignored.
func collectMetrics(fset *token.FileSet, f *ast.File, out map[string]MetricUse) {
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		text, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		for _, name := range metricNameRE.FindAllString(text, -1) {
			if name == "longtail_" {
				continue
			}
			if _, seen := out[name]; seen {
				continue
			}
			pos := fset.Position(lit.Pos())
			out[name] = MetricUse{Name: name, File: pos.Filename, Line: pos.Line}
		}
		return true
	})
}

type summarizer struct {
	pf   *PackageFacts
	fset *token.FileSet
	info *types.Info
}

// declName derives the canonical key for a declared function.
func (s *summarizer) declName(fd *ast.FuncDecl) string {
	if fn, ok := s.info.Defs[fd.Name].(*types.Func); ok {
		if n := canonFuncName(fn); n != "" {
			return n
		}
	}
	return s.pf.Path + "." + fd.Name.Name
}

// heldLock is one held-set entry: the type-level identity plus the
// syntactic receiver path ("l.mu") that distinguishes instances for
// double-lock detection, and whether it is a shared (RLock) hold.
// lockPos, deferRelease and unlockPos drive the early-return
// refinement: a `return` drops entries scheduled for deferred release
// that were acquired inside the return's innermost enclosing block, and
// restores entries acquired outside it that were released inside it.
type heldLock struct {
	id           string
	path         string
	rlock        bool
	lockPos      token.Pos
	deferRelease bool
	unlockPos    token.Pos // set once released; see funcState.released
}

// funcState walks one function body.
type funcState struct {
	s      *summarizer
	ff     *FuncFact
	params []*types.Var
	held   []heldLock
	// released are the entries explicit Unlocks took out of held.
	released []heldLock

	calls    map[string]bool
	acquires map[string]bool

	lits     map[*ast.FuncLit]string
	nlits    int
	name     string
	spawned  map[*ast.CallExpr]bool
	deferred map[*ast.CallExpr]bool
	// returnBlock maps each return statement to the start of its
	// innermost enclosing block, for the two refinements at a return.
	returnBlock map[*ast.ReturnStmt]token.Pos
}

func (s *summarizer) summarizeFunc(name string, ft *ast.FuncType, body *ast.BlockStmt) *FuncFact {
	ff := &FuncFact{}
	fs := &funcState{
		s:        s,
		ff:       ff,
		calls:    make(map[string]bool),
		acquires: make(map[string]bool),
		lits:     make(map[*ast.FuncLit]string),
		name:     name,
		spawned:  make(map[*ast.CallExpr]bool),
		deferred: make(map[*ast.CallExpr]bool),

		returnBlock: make(map[*ast.ReturnStmt]token.Pos),
	}
	if ft != nil && ft.Params != nil {
		for _, field := range ft.Params.List {
			n := len(field.Names)
			if n == 0 {
				n = 1 // unnamed parameter still occupies a slot
			}
			for i := 0; i < n; i++ {
				var v *types.Var
				if i < len(field.Names) {
					v, _ = s.info.Defs[field.Names[i]].(*types.Var)
				}
				fs.params = append(fs.params, v)
			}
		}
	}
	fs.mapReturnBlocks(body, body.Pos())
	ast.Inspect(body, fs.visit)
	fs.finish()
	s.pf.Funcs[name] = ff
	return ff
}

// mapReturnBlocks records, for every return statement, the position of
// its innermost enclosing block (including switch/select clause bodies,
// which are statement lists without braces of their own). Function
// literals are skipped: their returns exit the literal, not this body.
func (fs *funcState) mapReturnBlocks(n ast.Node, cur token.Pos) {
	switch n := n.(type) {
	case *ast.ReturnStmt:
		fs.returnBlock[n] = cur
		return
	case *ast.BlockStmt:
		for _, s := range n.List {
			fs.mapReturnBlocks(s, n.Pos())
		}
		return
	case *ast.CaseClause:
		for _, s := range n.Body {
			fs.mapReturnBlocks(s, n.Pos())
		}
		return
	case *ast.CommClause:
		for _, s := range n.Body {
			fs.mapReturnBlocks(s, n.Pos())
		}
		return
	case *ast.FuncLit:
		return
	case nil:
		return
	}
	walkChildren(n, func(c ast.Node) { fs.mapReturnBlocks(c, cur) })
}

func (fs *funcState) litName(lit *ast.FuncLit) string {
	if n, ok := fs.lits[lit]; ok {
		return n
	}
	fs.nlits++
	n := fs.name + "$" + strconv.Itoa(fs.nlits)
	fs.lits[lit] = n
	return n
}

func (fs *funcState) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncLit:
		// Summarize separately: a literal's lock events belong to its
		// own fact, linked back through ClosureArgs/Calls.
		name := fs.litName(n)
		fs.s.summarizeFunc(name, n.Type, n.Body)
		return false
	case *ast.GoStmt:
		fs.spawned[n.Call] = true
		return true
	case *ast.ReturnStmt:
		// The path ends here: locks acquired inside this return's block
		// and scheduled for deferred release are not held on any path
		// that reaches the code after the block.
		if blockPos, ok := fs.returnBlock[n]; ok {
			kept := fs.held[:0]
			for _, h := range fs.held {
				if !(h.deferRelease && h.lockPos >= blockPos) {
					kept = append(kept, h)
				}
			}
			fs.held = kept
			rest := fs.released[:0]
			for _, r := range fs.released {
				if r.unlockPos >= blockPos && r.lockPos < blockPos {
					fs.held = append(fs.held, r)
				} else {
					rest = append(rest, r)
				}
			}
			fs.released = rest
		}
		return true
	case *ast.DeferStmt:
		fs.deferred[n.Call] = true
		return true
	case *ast.CallExpr:
		fs.handleCall(n)
		return true
	}
	return true
}

// mutexMethods are the sync lock-state transitions the held-set model
// tracks.
var mutexMethods = map[string]bool{"Lock": true, "RLock": true, "Unlock": true, "RUnlock": true}

func (fs *funcState) handleCall(call *ast.CallExpr) {
	info := fs.s.info
	deferred := fs.deferred[call]
	spawned := fs.spawned[call]
	fun := ast.Unparen(call.Fun)

	sel, isSel := fun.(*ast.SelectorExpr)
	var callee *types.Func
	switch f := fun.(type) {
	case *ast.Ident:
		callee, _ = info.Uses[f].(*types.Func)
		if callee == nil {
			// A func-typed variable: if it is one of our parameters and
			// locks are held, record the invoke-under-lock fact.
			if v, ok := info.Uses[f].(*types.Var); ok && !deferred && !spawned && len(fs.held) > 0 {
				for i, p := range fs.params {
					if p != nil && p == v {
						fs.ff.InvokesParamUnder = append(fs.ff.InvokesParamUnder, ParamInvoke{Param: i, Held: fs.heldIDs()})
						break
					}
				}
			}
		}
	case *ast.SelectorExpr:
		callee, _ = info.Uses[f.Sel].(*types.Func)
	}

	// sync mutex state transitions.
	if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "sync" && isSel && mutexMethods[sel.Sel.Name] {
		fs.mutexOp(sel, call, deferred)
		return
	}

	name := canonFuncName(callee)
	if name != "" {
		if !spawned {
			fs.calls[name] = true
			if len(fs.held) > 0 && !deferred {
				pos := fs.s.fset.Position(call.Pos())
				fs.ff.CallsUnder = append(fs.ff.CallsUnder, CallUnder{
					Callee: name, Held: fs.heldIDs(), File: pos.Filename, Line: pos.Line,
				})
			}
		}
		for i, arg := range call.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok && !spawned {
				pos := fs.s.fset.Position(arg.Pos())
				fs.ff.ClosureArgs = append(fs.ff.ClosureArgs, ClosureArg{
					Callee: name, Param: i, Lit: fs.litName(lit), File: pos.Filename, Line: pos.Line,
				})
			}
		}
	}
}

// mutexOp applies one Lock/Unlock to the held set.
func (fs *funcState) mutexOp(sel *ast.SelectorExpr, call *ast.CallExpr, deferred bool) {
	id, path := fs.s.lockIdent(sel)
	if id == "" || strings.HasPrefix(id, "sync.") {
		return // local or unattributable mutex: no global identity
	}
	op := sel.Sel.Name
	pos := fs.s.fset.Position(call.Pos())
	switch op {
	case "Lock", "RLock":
		if deferred {
			return // defer mu.Lock() is nonsense; don't model it
		}
		rlock := op == "RLock"
		for _, h := range fs.held {
			switch {
			case h.id == id && h.path == path:
				if !(h.rlock && rlock) {
					fs.ff.DoubleLocks = append(fs.ff.DoubleLocks, LockEdge{From: id, To: id, File: pos.Filename, Line: pos.Line})
				}
			case h.id != id:
				fs.ff.Edges = append(fs.ff.Edges, LockEdge{From: h.id, To: id, File: pos.Filename, Line: pos.Line})
			}
		}
		fs.held = append(fs.held, heldLock{id: id, path: path, rlock: rlock, lockPos: call.Pos()})
		fs.acquires[id] = true
	case "Unlock", "RUnlock":
		if deferred {
			// Deferred release: held to the end of the body, except that
			// a return in the acquiring block ends the hold (see visit).
			for i := len(fs.held) - 1; i >= 0; i-- {
				if fs.held[i].path == path || fs.held[i].id == id {
					fs.held[i].deferRelease = true
					return
				}
			}
			return
		}
		release := func(i int) {
			h := fs.held[i]
			h.unlockPos = call.Pos()
			fs.released = append(fs.released, h)
			fs.held = append(fs.held[:i], fs.held[i+1:]...)
		}
		for i := len(fs.held) - 1; i >= 0; i-- {
			if fs.held[i].path == path {
				release(i)
				return
			}
		}
		for i := len(fs.held) - 1; i >= 0; i-- {
			if fs.held[i].id == id {
				release(i)
				return
			}
		}
	}
}

func (fs *funcState) heldIDs() []string {
	ids := make([]string, 0, len(fs.held))
	seen := make(map[string]bool)
	for _, h := range fs.held {
		if !seen[h.id] {
			seen[h.id] = true
			ids = append(ids, h.id)
		}
	}
	return ids
}

func (fs *funcState) finish() {
	for id := range fs.acquires {
		fs.ff.Acquires = append(fs.ff.Acquires, id)
	}
	sort.Strings(fs.ff.Acquires)
	for c := range fs.calls {
		fs.ff.Calls = append(fs.ff.Calls, c)
	}
	sort.Strings(fs.ff.Calls)
}

// lockIdent derives the global identity of the mutex behind a
// Lock/Unlock selector: "pkg/path.Type.field" for mutex fields
// (including embedded mutexes, via the selection's field path),
// "pkg/path.var" for package-level mutexes, "" for locals.
func (s *summarizer) lockIdent(sel *ast.SelectorExpr) (id, path string) {
	recv := ast.Unparen(sel.X)
	t := derefType(s.info.TypeOf(recv))
	if named, ok := t.(*types.Named); ok && !isSyncMutex(named) {
		// Receiver embeds the mutex: s.Lock() on a struct. Walk the
		// selection's implicit field path to name the embedded field.
		selinfo := s.info.Selections[sel]
		if selinfo == nil || types.IsInterface(named) || named.Obj().Pkg() == nil {
			return "", ""
		}
		idx := selinfo.Index()
		if len(idx) < 2 {
			return "", ""
		}
		cur := named.Underlying()
		var chain []string
		for _, fi := range idx[:len(idx)-1] {
			st, ok := cur.(*types.Struct)
			if !ok || fi >= st.NumFields() {
				return "", ""
			}
			fld := st.Field(fi)
			chain = append(chain, fld.Name())
			cur = derefType(fld.Type()).Underlying()
		}
		base := named.Obj().Pkg().Path() + "." + named.Obj().Name()
		return base + "." + strings.Join(chain, "."), types.ExprString(recv) + "." + strings.Join(chain, ".")
	}
	switch e := recv.(type) {
	case *ast.SelectorExpr:
		if baseID, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			if _, isPkg := s.info.Uses[baseID].(*types.PkgName); isPkg {
				if obj := s.info.Uses[e.Sel]; obj != nil && obj.Pkg() != nil {
					return obj.Pkg().Path() + "." + e.Sel.Name, types.ExprString(recv)
				}
				return "", ""
			}
		}
		owner := derefType(s.info.TypeOf(e.X))
		if named, ok := owner.(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name,
				types.ExprString(recv)
		}
	case *ast.Ident:
		if v, ok := s.info.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + e.Name, e.Name
		}
	}
	return "", ""
}

func isSyncMutex(named *types.Named) bool {
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// walkChildren applies fn to each direct child of n.
func walkChildren(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}
