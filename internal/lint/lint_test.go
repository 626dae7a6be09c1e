package lint

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint/lintkit"
	"repro/internal/lint/lintkit/lintkittest"
)

// Each analyzer has a flagging fixture (every bad shape carries a
// `// want` expectation) and a non-flagging one (scope exemptions and
// sanctioned patterns), per the analysistest convention.

func TestDeterminism(t *testing.T) {
	lintkittest.Run(t, "testdata/src/determinism/synth", Determinism)
}

func TestDeterminismOutOfScope(t *testing.T) {
	lintkittest.Run(t, "testdata/src/determinism/clean", Determinism)
}

// TestDeterminismLifecycle pins the widened default scope: the
// champion/challenger lifecycle (caller-injected clocks) is inside the
// deterministic core.
func TestDeterminismLifecycle(t *testing.T) {
	lintkittest.Run(t, "testdata/src/determinism/lifecycle", Determinism)
}

func TestLockguard(t *testing.T) {
	lintkittest.Run(t, "testdata/src/lockguard/serve", Lockguard)
}

// TestLockguardCatchesCompactionBug pins the acceptance criterion
// directly: the PR 3 bug shape — guarded state captured before the
// write lock — must be flagged, and the fixed shape must not.
func TestLockguardCatchesCompactionBug(t *testing.T) {
	res := lintkittest.Run(t, "testdata/src/lockguard/serve", Lockguard)
	lintkittest.MustFind(t, res.Diags, "lockguard", `pending is guarded by mu but compactRacy accesses it`)
	for _, d := range res.Diags {
		if strings.Contains(d.Message, "compactSafe") {
			t.Errorf("compactSafe (capture under the lock) must be clean, got: %s", d)
		}
	}
}

func TestLockguardClean(t *testing.T) {
	lintkittest.Run(t, "testdata/src/lockguard/clean", Lockguard)
}

// TestLockorder pins the acceptance bug class: a real cross-package
// lock-order cycle, where one direction comes from a call made under a
// lock and the other from a closure run under the callee's lock — both
// resolved through the cross-package facts.
func TestLockorder(t *testing.T) {
	lintkittest.Run(t, "testdata/src/lockorder/a", Lockorder)
}

func TestLockorderClean(t *testing.T) {
	lintkittest.Run(t, "testdata/src/lockorder/clean", Lockorder)
}

// withMetricDocs points metricdrift at the fixture's own documentation
// file for the duration of one test.
func withMetricDocs(t *testing.T, path string) {
	t.Helper()
	abs, err := filepath.Abs(path)
	if err != nil {
		t.Fatal(err)
	}
	old := metricDocs
	metricDocs = abs
	t.Cleanup(func() { metricDocs = old })
}

// TestMetricdrift pins the misspelled-metric class: case drift,
// segmentation drift against the documented spelling, and undocumented
// names.
func TestMetricdrift(t *testing.T) {
	withMetricDocs(t, "testdata/src/metricdrift/docs/METRICS.md")
	lintkittest.Run(t, "testdata/src/metricdrift/app", Metricdrift)
}

func TestMetricdriftClean(t *testing.T) {
	withMetricDocs(t, "testdata/src/metricdrift/docs/METRICS.md")
	lintkittest.Run(t, "testdata/src/metricdrift/clean", Metricdrift)
}

func TestJournalOrder(t *testing.T) {
	lintkittest.Run(t, "testdata/src/journalorder/serve", JournalOrder)
}

func TestJournalOrderClean(t *testing.T) {
	lintkittest.Run(t, "testdata/src/journalorder/clean/serve", JournalOrder)
}

func TestRetryPolicy(t *testing.T) {
	lintkittest.Run(t, "testdata/src/retrypolicy/app", RetryPolicy)
}

func TestRetryPolicyExemptPackage(t *testing.T) {
	lintkittest.Run(t, "testdata/src/retrypolicy/retry", RetryPolicy)
}

// TestRetryPolicyLifecycle pins that the lifecycle's re-scan scheduler
// is NOT exempt: its pacing must go through internal/retry, and a bare
// sleep-poll loop is flagged.
func TestRetryPolicyLifecycle(t *testing.T) {
	lintkittest.Run(t, "testdata/src/retrypolicy/lifecycle", RetryPolicy)
}

func TestErrWrap(t *testing.T) {
	lintkittest.Run(t, "testdata/src/errwrap/app", ErrWrap)
}

func TestErrWrapClean(t *testing.T) {
	lintkittest.Run(t, "testdata/src/errwrap/clean", ErrWrap)
}

// TestCopyLocksVet pins the invariant the retired atomicswap analyzer
// and lockorder's dereference check guarded to the check that remains:
// plain `go vet` (tier-1) reports a copied atomic and a copied mutex.
func TestCopyLocksVet(t *testing.T) {
	out, err := exec.Command("go", "vet", "./testdata/src/copylocks").CombinedOutput()
	if err == nil {
		t.Fatalf("go vet passed the copylocks fixture; want findings\n%s", out)
	}
	for _, want := range []string{
		"assignment copies lock value to snapshot: sync/atomic.Pointer[",
		"assignment copies lock value to snapshot: sync/atomic.Uint64 contains sync/atomic.noCopy",
		"assignment copies lock value to dup: repro/internal/lint/testdata/src/copylocks.counter contains sync.Mutex",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("go vet output lacks %q:\n%s", want, out)
		}
	}
}

// TestAllowDirectives runs the whole suite over the directive fixture:
// suppression must be analyzer-scoped and reason-mandatory.
func TestAllowDirectives(t *testing.T) {
	lintkittest.Run(t, "testdata/src/allow/app", Suite()...)
}

// TestTestFiles pins that the loader hands analyzers a package's
// _test.go files: the fixture's in-package and external test files each
// hold a %v-wrapped error, the in-package one a reason-less
// //lint:allow. It fails if Load stops listing with -test. Every file
// must also be analysed exactly once although the plain package, its
// test variant and the external test package are all listed: a
// duplicate finding has no want left to match, and the one suppressed
// site must appear once.
func TestTestFiles(t *testing.T) {
	res := lintkittest.Run(t, "testdata/src/testfiles/app", ErrWrap)
	if len(res.Suppressed) != 1 {
		t.Errorf("got %d suppressed findings, want the one site in app.go: %v", len(res.Suppressed), res.Suppressed)
	}
}

// TestTreeClean holds the whole module — the lint packages included —
// to the suite on every `go test ./...`, not only under `make lint`.
func TestTreeClean(t *testing.T) {
	pkgs, err := lintkit.Load("", "repro/...")
	if err != nil {
		t.Fatal(err)
	}
	res, err := lintkit.Run(pkgs, Suite())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diags {
		t.Error(d)
	}
}
