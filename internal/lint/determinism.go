package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/lintkit"
)

// Determinism enforces the reproduction's core property: every stage of
// the offline pipeline is a pure function of its seed. Inside the
// deterministic core (synth, export, faults, experiments, the
// classifier/rule-induction packages classify and part, the
// champion/challenger lifecycle — whose clocks are injected by callers
// — and features, whose compiled table layout is to be a function of
// the corpus alone, the same in every process) it flags:
//
//   - time.Now — wall-clock reads make two runs with the same seed
//     diverge; derive timestamps from the synthetic trace clock.
//   - the global math/rand functions (rand.Intn, rand.Shuffle, ...) and
//     rand.Seed — they share mutable process-global state; thread a
//     seeded *rand.Rand instead.
//   - ranging over a map while writing output inside the loop body —
//     Go randomizes map iteration order, so serialized bytes differ
//     run-to-run; collect the keys, sort, then emit.
//
// The daemon and serving layer legitimately read the real clock, which
// is why the scope is package-based: determinismPkgs lists the package
// base names under the invariant.
var Determinism = &lintkit.Analyzer{
	Name: "determinism",
	Doc:  "flag wall-clock, global PRNG and unsorted map-iteration output in the deterministic pipeline core",
	Run:  runDeterminism,
}

const determinismPkgs = "synth,export,faults,experiments,chaoskit,classify,part,lifecycle,features"

// randConstructors are the math/rand package-level functions that do
// NOT touch the global source and are therefore fine.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// writerCallNames are method/function names that emit bytes; a map
// range whose body calls one of these is serializing in map order.
var writerCallNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

func runDeterminism(pass *lintkit.Pass) error {
	if !pkgInScope(pass.Path, determinismPkgs) {
		return nil
	}
	for _, f := range pass.Files {
		if lintkit.IsTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterministicCall(pass, n)
			case *ast.RangeStmt:
				checkMapRangeOutput(pass, n)
			}
			return true
		})
	}
	return nil
}

// qualifiedName returns "pkgpath.Func" for a package-level function
// object, or "".
func qualifiedName(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return "" // methods never hit the global-state checks below
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

func checkDeterministicCall(pass *lintkit.Pass, call *ast.CallExpr) {
	id := calleeIdent(call)
	if id == nil {
		return
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		return
	}
	qn := qualifiedName(obj)
	switch {
	case qn == "time.Now":
		pass.Reportf(call.Pos(), "time.Now breaks seed-determinism in package %s; derive timestamps from the trace clock", pass.Pkg.Name())
	case strings.HasPrefix(qn, "math/rand.") || strings.HasPrefix(qn, "math/rand/v2."):
		name := qn[strings.LastIndexByte(qn, '.')+1:]
		if !randConstructors[name] {
			pass.Reportf(call.Pos(), "global math/rand.%s uses shared process state and breaks seed-determinism; thread a seeded *rand.Rand", name)
		}
	}
}

// checkMapRangeOutput flags `for k := range m { ... emit ... }` where m
// is a map and the body performs writer-style calls: the emitted byte
// order then depends on Go's randomized map iteration.
func checkMapRangeOutput(pass *lintkit.Pass, rng *ast.RangeStmt) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	reported := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id := calleeIdent(call)
		if id == nil || !writerCallNames[id.Name] {
			return true
		}
		reported = true
		pass.Reportf(rng.Pos(), "ranging over a map while calling %s in the loop body serializes in randomized map order; collect keys, sort, then emit", id.Name)
		return false
	})
}
