package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/lintkit"
)

// JournalOrder enforces the serving layer's durability handshake: a
// batch is journaled (Ledger.AcceptWire, or a raw journal AppendFunc)
// BEFORE any response bytes for it leave the server. If a
// response could escape first, a crash between the two would leave the
// client believing in a batch the ledger never heard of — exactly the
// lost-update the write-ahead journal exists to prevent.
//
// The check is per-function and lexical: in any function (scope,
// journalorderPkgs: package base "serve") that both journals a batch and writes a
// response — an http.ResponseWriter Write/WriteHeader, or a send into
// a channel of verdict records — the first response write must come
// after the first journal call. Functions that only do one of the two
// are ignored, so pure helpers and pure handlers don't need
// annotations; paths that intentionally respond before journaling
// (e.g. rejecting a malformed request) are fine because rejection
// paths don't call AcceptWire at all.
//
// Being per-function, the check only sees a handler whose body holds
// both halves: /classify's staged handleClassify keeps the inline
// path's AcceptWire call and the one response write in its own body
// (the stages it calls return data), and the fixture pins that shape
// with the two swapped.
//
// The journal's group-commit ack queue does not weaken the invariant,
// and the analyzer needs no special case for it: AcceptWire still
// appends to the batch's shard before returning, and the ack queue only
// delays the response further (the handler blocks on the shard's next
// fsync before writing bytes). The journal's own entry points
// (AppendFunc/AppendAsyncFunc) count as journal calls too.
var JournalOrder = &lintkit.Analyzer{
	Name: "journalorder",
	Doc:  "no response write may precede the batch's journal accept in the same function",
	Run:  runJournalOrder,
}

const journalorderPkgs = "serve"

// journalCallNames are the durable-accept entry points. Import and
// ImportChunk cover the handoff plane: acking a received chunk is a
// transfer of authority, so the chunk's records must hit the journal
// before the ack escapes.
var journalCallNames = map[string]bool{
	"AcceptWire": true, "AppendFunc": true, "AppendAsyncFunc": true,
	"Import": true, "ImportChunk": true,
}

func runJournalOrder(pass *lintkit.Pass) error {
	if !pkgInScope(pass.Path, journalorderPkgs) {
		return nil
	}
	for _, f := range pass.Files {
		if lintkit.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkJournalOrder(pass, fd)
		}
	}
	return nil
}

func checkJournalOrder(pass *lintkit.Pass, fd *ast.FuncDecl) {
	var firstJournal token.Pos
	type respWrite struct {
		pos  token.Pos
		what string
	}
	var writes []respWrite
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if journalCallNames[name] {
				if firstJournal == token.NoPos || n.Pos() < firstJournal {
					firstJournal = n.Pos()
				}
				return true
			}
			if (name == "Write" || name == "WriteHeader" || name == "WriteString") && isResponseWriter(pass, sel.X) {
				writes = append(writes, respWrite{pos: n.Pos(), what: "http response " + name})
			}
		case *ast.SendStmt:
			if isVerdictChannel(pass, n.Chan) {
				writes = append(writes, respWrite{pos: n.Pos(), what: "verdict channel send"})
			}
		}
		return true
	})
	if firstJournal == token.NoPos {
		return // function never journals; not a durability path
	}
	for _, w := range writes {
		if w.pos < firstJournal {
			pass.Reportf(w.pos, "%s happens before the batch's journal accept in %s; a crash between them loses an acknowledged batch — journal first", w.what, fd.Name.Name)
		}
	}
}

// isResponseWriter reports whether expr's type implements
// net/http.ResponseWriter (detected structurally: Header/Write/
// WriteHeader methods), so wrappers and the interface itself both
// count.
func isResponseWriter(pass *lintkit.Pass, expr ast.Expr) bool {
	t := pass.TypeOf(expr)
	if t == nil {
		return false
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "net/http" && named.Obj().Name() == "ResponseWriter" {
		return true
	}
	return hasMethod(t, "WriteHeader") && hasMethod(t, "Header") && hasMethod(t, "Write")
}

// isVerdictChannel reports whether expr is a channel whose element type
// names a verdict record.
func isVerdictChannel(pass *lintkit.Pass, expr ast.Expr) bool {
	t := pass.TypeOf(expr)
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	elem := ch.Elem()
	if ptr, ok := elem.Underlying().(*types.Pointer); ok {
		elem = ptr.Elem()
	}
	named, ok := elem.(*types.Named)
	if !ok {
		return false
	}
	name := named.Obj().Name()
	return name == "VerdictRecord" || name == "Verdict"
}

// hasMethod reports whether t (or *t) has a method with the given name,
// either declared or via an interface's method set.
func hasMethod(t types.Type, name string) bool {
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == name {
				return true
			}
		}
		return false
	}
	recv := t
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		recv = types.NewPointer(t)
	}
	ms := types.NewMethodSet(recv)
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	return false
}
