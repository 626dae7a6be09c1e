package lint

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/lint/lintkit"
)

// Lockorder detects potential deadlocks from inconsistent mutex
// acquisition order, using the interprocedural facts lintkit computes
// per package. Two checks:
//
//   - Lock-order cycles: every "lock B acquired while lock A held" site
//     — whether both acquisitions are in one body, the second comes
//     from a callee's (transitive) acquisitions, or from a closure run
//     under a callee's lock (the journal's run-under-my-lock shape) —
//     contributes a directed edge A→B to a global, type-level
//     acquisition graph spanning every package in the build. An edge
//     that closes a cycle is a potential deadlock and is reported at
//     the edge's own site, with the cycle spelled out.
//   - Double locks: re-acquiring an exclusive lock already held on the
//     same syntactic path (m.mu.Lock(); m.mu.Lock()) self-deadlocks.
//     Shared RLock/RLock pairs are fine.
//
// Copying a mutex-bearing value (snapshot := *s), which silently splits
// one critical section into two, is `go vet`'s copylocks check; the
// copylocks fixture pins that it stays caught.
//
// Lock identities are type-level ("pkg.Type.field", "pkg.var"), so the
// hierarchy is about code structure, not instances; local mutexes have
// no global identity and are exempt. The model is lexical — an Unlock
// before a call releases the hold — matching how the repo writes
// unlock-then-call sequences.
var Lockorder = &lintkit.Analyzer{
	Name: "lockorder",
	Doc:  "mutex acquisition order must be globally consistent (no lock-order cycles or double locks)",
	Run:  runLockorder,
}

func runLockorder(pass *lintkit.Pass) error {
	own := pass.OwnFacts()
	if own == nil {
		return nil
	}
	g := &lockGraph{facts: pass.Facts, memo: make(map[string]map[string]bool)}
	adj := g.globalEdges()

	reported := make(map[string]bool)
	for _, name := range sortedFuncs(own) {
		ff := own.Funcs[name]
		for _, dl := range ff.DoubleLocks {
			key := "dbl|" + dl.From + "|" + dl.File + "|" + strconv.Itoa(dl.Line)
			if reported[key] {
				continue
			}
			reported[key] = true
			pass.ReportPosition(dl.File, dl.Line,
				"%s acquired while already held on the same path in %s — an exclusive re-lock self-deadlocks",
				shortLock(dl.To), shortFunc(name))
		}
		for _, e := range g.funcEdges(ff) {
			cyc := cyclePath(adj, e.To, e.From)
			if cyc == nil {
				continue
			}
			key := "cyc|" + e.From + "|" + e.To + "|" + e.File + "|" + strconv.Itoa(e.Line)
			if reported[key] {
				continue
			}
			reported[key] = true
			names := []string{shortLock(e.From)}
			for _, l := range cyc {
				names = append(names, shortLock(l))
			}
			pass.ReportPosition(e.File, e.Line,
				"lock order cycle: %s — another path acquires these locks in the opposite order; pick one global order",
				strings.Join(names, " -> "))
		}
	}
	return nil
}

// lockGraph resolves transitive lock acquisitions over the facts'
// call graph.
type lockGraph struct {
	facts *lintkit.FactSet
	memo  map[string]map[string]bool
	stack map[string]bool
}

// acquires returns every lock the function (transitively) acquires:
// its own, its static callees', and those of closures it passes to
// callees that invoke them.
func (g *lockGraph) acquires(key string) map[string]bool {
	if m, ok := g.memo[key]; ok {
		return m
	}
	if g.stack == nil {
		g.stack = make(map[string]bool)
	}
	if g.stack[key] {
		return nil // recursion: the cycle contributes nothing new
	}
	g.stack[key] = true
	defer delete(g.stack, key)
	out := make(map[string]bool)
	if ff := g.facts.Func(key); ff != nil {
		for _, a := range ff.Acquires {
			out[a] = true
		}
		for _, c := range ff.Calls {
			for a := range g.acquires(c) {
				out[a] = true
			}
		}
		for _, ca := range ff.ClosureArgs {
			if g.calleeInvokes(ca) {
				for a := range g.acquires(ca.Lit) {
					out[a] = true
				}
			}
		}
	}
	g.memo[key] = out
	return out
}

// calleeInvokes reports whether the closure-arg's callee invokes that
// parameter (under any lock set).
func (g *lockGraph) calleeInvokes(ca lintkit.ClosureArg) bool {
	cf := g.facts.Func(ca.Callee)
	if cf == nil {
		return false
	}
	for _, pi := range cf.InvokesParamUnder {
		if pi.Param == ca.Param {
			return true
		}
	}
	return false
}

// funcEdges expands one function's facts into concrete held→acquired
// edges: direct in-body pairs, calls made under locks crossed with the
// callee's transitive acquisitions, and closures handed to callees
// that run them under their own locks.
func (g *lockGraph) funcEdges(ff *lintkit.FuncFact) []lintkit.LockEdge {
	edges := append([]lintkit.LockEdge(nil), ff.Edges...)
	for _, cu := range ff.CallsUnder {
		for a := range g.acquires(cu.Callee) {
			for _, h := range cu.Held {
				if h != a {
					edges = append(edges, lintkit.LockEdge{From: h, To: a, File: cu.File, Line: cu.Line})
				}
			}
		}
	}
	for _, ca := range ff.ClosureArgs {
		cf := g.facts.Func(ca.Callee)
		if cf == nil {
			continue
		}
		for _, pi := range cf.InvokesParamUnder {
			if pi.Param != ca.Param {
				continue
			}
			for a := range g.acquires(ca.Lit) {
				for _, h := range pi.Held {
					if h != a {
						edges = append(edges, lintkit.LockEdge{From: h, To: a, File: ca.File, Line: ca.Line})
					}
				}
			}
		}
	}
	sortEdges(edges)
	return edges
}

// globalEdges builds the acquisition graph over every package in the
// fact set, keeping one witness edge per ordered pair.
func (g *lockGraph) globalEdges() map[string]map[string]bool {
	adj := make(map[string]map[string]bool)
	var paths []string
	for p := range g.facts.Pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		pf := g.facts.Pkgs[p]
		for _, name := range sortedFuncs(pf) {
			for _, e := range g.funcEdges(pf.Funcs[name]) {
				if adj[e.From] == nil {
					adj[e.From] = make(map[string]bool)
				}
				adj[e.From][e.To] = true
			}
		}
	}
	return adj
}

// cyclePath returns the lock sequence from `from` back to `to` through
// the acquisition graph (BFS, deterministic order), or nil when `to`
// is unreachable — i.e. the edge to→from closes no cycle.
func cyclePath(adj map[string]map[string]bool, from, to string) []string {
	parent := map[string]string{from: ""}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		var next []string
		for n := range adj[cur] {
			next = append(next, n)
		}
		sort.Strings(next)
		for _, n := range next {
			if _, seen := parent[n]; seen {
				continue
			}
			parent[n] = cur
			if n == to {
				var path []string
				for cur := n; cur != ""; cur = parent[cur] {
					path = append([]string{cur}, path...)
				}
				return path
			}
			queue = append(queue, n)
		}
	}
	return nil
}

// shortLock trims the package path off a lock identity, keeping the
// last path segment ("repro/internal/serve.Ledger.mu" → "serve.Ledger.mu").
func shortLock(id string) string {
	if i := strings.LastIndexByte(id, '/'); i >= 0 {
		return id[i+1:]
	}
	return id
}

// shortFunc trims the package path off a canonical function key.
func shortFunc(key string) string {
	if i := strings.LastIndexByte(key, '/'); i >= 0 {
		return key[i+1:]
	}
	return key
}

// sortedFuncs returns the package's function keys in stable order.
func sortedFuncs(pf *lintkit.PackageFacts) []string {
	names := make([]string, 0, len(pf.Funcs))
	for n := range pf.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sortEdges(edges []lintkit.LockEdge) {
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
}
