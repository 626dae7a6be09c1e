package lintkit

import "strings"

// Cross-package facts. Each package's summarizer (callgraph.go) distills
// its typed syntax into a PackageFacts value: a lightweight call graph
// (static calls and method sets; interface dispatch is dropped rather
// than widened, so every recorded edge is real), the mutex events each
// function performs, and the `longtail_*` metric literals the package
// emits. The loader computes them for every in-module package before
// analysis begins, so the one in-memory FactSet answers interprocedural
// questions ("what locks does this callee take, transitively?") for the
// whole module.

// LockEdge is one ordered pair in the global mutex-acquisition graph:
// the lock To was (or would be) acquired while From was held, at
// File:Line. Lock identities are type-level — "pkg/path.Type.field" for
// a mutex field, "pkg/path.var" for a package-level mutex — so the
// graph spans instances, which is what a lock *hierarchy* is about.
type LockEdge struct {
	From string
	To   string
	File string
	Line int
}

// CallUnder records a static call made while locks were held: every
// lock the callee acquires transitively becomes an edge from each held
// lock.
type CallUnder struct {
	Callee string
	Held   []string
	File   string
	Line   int
}

// ParamInvoke records that a function invokes its Param'th (flattened)
// func-typed parameter while holding Held — the journal-style "run this
// closure under my lock" shape. A caller passing a function literal in
// that position inherits edges from Held into the literal's locks.
type ParamInvoke struct {
	Param int
	Held  []string
}

// ClosureArg records a function literal passed as the Param'th argument
// of a static call; Lit names the literal's own summary in the same
// package's Funcs map.
type ClosureArg struct {
	Callee string
	Param  int
	Lit    string
	File   string
	Line   int
}

// FuncFact is one function's interprocedural summary. Function keys are
// canonical: "pkg/path.Func" for package functions, "pkg/path.Type.Method"
// for methods (pointer and value receivers collapse), and
// "<parent>$<n>" for the n'th function literal inside parent.
type FuncFact struct {
	// Acquires lists lock IDs this function itself Lock()s or RLock()s.
	Acquires []string
	// Edges are held→acquired pairs observed lexically inside the body.
	Edges []LockEdge
	// DoubleLocks are re-acquisitions of a lock already held on the same
	// syntactic path — self-deadlocks for a plain sync.Mutex.
	DoubleLocks []LockEdge
	// CallsUnder are static calls made while locks were held.
	CallsUnder []CallUnder
	// Calls lists every statically resolved callee (deduplicated).
	Calls []string
	// InvokesParamUnder marks func-typed parameters invoked under locks.
	InvokesParamUnder []ParamInvoke
	// ClosureArgs are function literals handed to static callees.
	ClosureArgs []ClosureArg
}

// MetricUse is one `longtail_*` metric name occurrence in non-test code.
type MetricUse struct {
	Name string
	File string
	Line int
}

// PackageFacts is everything one package exports to downstream
// analysis.
type PackageFacts struct {
	Path    string
	Funcs   map[string]*FuncFact
	Metrics []MetricUse
}

// FactSet is the union of facts visible to every analysis pass, built
// in memory for the whole module: one PackageFacts per non-standard
// package of the load, keyed by plain import path.
type FactSet struct {
	Pkgs map[string]*PackageFacts
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{Pkgs: make(map[string]*PackageFacts)}
}

// Add puts pf into the set.
func (fs *FactSet) Add(pf *PackageFacts) {
	if pf == nil || pf.Path == "" {
		return
	}
	fs.Pkgs[pf.Path] = pf
}

// Func resolves a canonical function key ("pkg/path.Name", possibly
// with $n literal suffixes) to its fact, or nil.
func (fs *FactSet) Func(key string) *FuncFact {
	if fs == nil {
		return nil
	}
	pkg := key
	if i := strings.IndexByte(pkg, '$'); i >= 0 {
		pkg = pkg[:i]
	}
	// The package path is everything before the first dot after the
	// last slash (method keys have two trailing dots).
	slash := strings.LastIndexByte(pkg, '/')
	dot := strings.IndexByte(pkg[slash+1:], '.')
	if dot < 0 {
		return nil
	}
	pf := fs.Pkgs[pkg[:slash+1+dot]]
	if pf == nil {
		return nil
	}
	return pf.Funcs[key]
}
