package lifecycle

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/avsim"
	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/features"
	"repro/internal/journal"
	"repro/internal/labeling"
	"repro/internal/leaktest"
	"repro/internal/part"
	"repro/internal/serve"
	"repro/internal/synth"
)

// The fixture is one deterministic world shared by every test: a
// labeled corpus, an extractor, a champion trained on month 0, and the
// month-1 events the lifecycle shadows.
type fixture struct {
	res      *synth.Result
	ex       *features.Extractor
	champion *classify.Classifier
	base     []features.Instance // champion's training window
	replay   []dataset.DownloadEvent
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func sharedFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		res, err := synth.Generate(synth.DefaultConfig(11, 0.004))
		if err != nil {
			fixErr = err
			return
		}
		lab, err := labeling.New(avsim.NewDefaultService(), res.Oracle, nil, nil, 0)
		if err != nil {
			fixErr = err
			return
		}
		if err := lab.LabelStore(res.Store, res.Samples); err != nil {
			fixErr = err
			return
		}
		res.Store.Freeze()
		ex, err := features.NewExtractor(res.Store, res.Oracle)
		if err != nil {
			fixErr = err
			return
		}
		months := res.Store.Months()
		if len(months) < 2 {
			fixErr = fmt.Errorf("fixture: need >= 2 months, got %d", len(months))
			return
		}
		base, err := ex.Instances(res.Store.EventIndexesInMonth(months[0]))
		if err != nil {
			fixErr = err
			return
		}
		champion, err := classify.Train(base, 0.001, classify.Reject)
		if err != nil {
			fixErr = err
			return
		}
		events := res.Store.Events()
		var replay []dataset.DownloadEvent
		for _, idx := range res.Store.EventIndexesInMonth(months[1]) {
			replay = append(replay, events[idx])
		}
		fix = &fixture{res: res, ex: ex, champion: champion, base: base, replay: replay}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fix
}

// storeTruth is ground truth straight from the labeled store — what a
// fully caught-up harvester would know.
func storeTruth(f *fixture) TruthFunc {
	return func(h dataset.FileHash) (bool, bool) {
		switch f.res.Store.Label(h) {
		case dataset.LabelMalicious:
			return true, true
		case dataset.LabelBenign:
			return false, true
		default:
			return false, false
		}
	}
}

// champVerdicts classifies events offline with the champion, producing
// the records a serving engine would emit at generation 1.
func champVerdicts(t *testing.T, f *fixture, events []dataset.DownloadEvent) []serve.VerdictRecord {
	t.Helper()
	out := make([]serve.VerdictRecord, len(events))
	for i := range events {
		vec, err := f.ex.Vector(&events[i])
		if err != nil {
			t.Fatal(err)
		}
		inst := features.Instance{Vector: vec, File: events[i].File}
		v, rules := f.champion.ClassifyOne(&inst)
		out[i] = serve.VerdictRecord{
			Type: "verdict", File: string(events[i].File),
			Verdict: v.String(), Generation: 1, Rules: rules,
		}
	}
	return out
}

// badChallenger builds an over-broad challenger: the champion's
// malicious rules plus one crafted rule matching the most common
// (attribute, value) among known-benign replay traffic — guaranteed FP
// bleed over any reasonable budget.
func badChallenger(t *testing.T, f *fixture) *classify.Classifier {
	t.Helper()
	type av struct {
		attr int
		val  string
	}
	counts := make(map[av]int)
	truth := storeTruth(f)
	for i := range f.replay {
		mal, known := truth(f.replay[i].File)
		if !known || mal {
			continue
		}
		vec, err := f.ex.Vector(&f.replay[i])
		if err != nil {
			continue
		}
		for a := 0; a < features.NumNominal; a++ {
			if v := vec.Nominal(a); v != features.None {
				counts[av{a, v}]++
			}
		}
	}
	var best av
	bestN := 0
	for k, n := range counts {
		if n > bestN || (n == bestN && (k.attr < best.attr || (k.attr == best.attr && k.val < best.val))) {
			best, bestN = k, n
		}
	}
	if bestN == 0 {
		t.Fatal("no common benign nominal value found")
	}
	var rules []part.Rule
	for _, r := range f.champion.Rules {
		if r.Class == classify.ClassMalicious {
			rules = append(rules, r)
		}
	}
	rules = append(rules, part.Rule{
		Conditions: []part.Condition{{
			AttrIndex: best.attr,
			AttrName:  features.AttributeNames[best.attr],
			Op:        part.OpEquals,
			Value:     best.val,
		}},
		Class: classify.ClassMalicious, ClassName: "malicious",
		Covered: bestN,
	})
	clf, err := classify.NewFromRules(rules, classify.Reject)
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

func newEval(t *testing.T, f *fixture, truth TruthFunc) *Evaluator {
	t.Helper()
	leaktest.Check(t) // the worker is gone once Close has returned
	e, err := NewEvaluator(f.ex, truth)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leaktest.Within(t, 5*time.Second, "Evaluator.Close", e.Close) })
	return e
}

func feedAll(t *testing.T, f *fixture, e *Evaluator) {
	t.Helper()
	tap := e.Tap()
	const batch = 64
	for lo := 0; lo < len(f.replay); lo += batch {
		hi := lo + batch
		if hi > len(f.replay) {
			hi = len(f.replay)
		}
		events := f.replay[lo:hi]
		tap(events, champVerdicts(t, f, events))
		if lo%(batch*4) == 0 {
			e.Flush() // keep the bounded queue from overflowing
		}
	}
	e.Flush()
}

func TestEvaluatorIdenticalChallengerAgrees(t *testing.T) {
	f := sharedFixture(t)
	e := newEval(t, f, storeTruth(f))
	e.SetChallenger(f.champion, "challenger-1")
	feedAll(t, f, e)

	s := e.Snapshot()
	if s.Samples == 0 || s.Samples != uint64(len(f.replay))-s.Dropped {
		t.Fatalf("samples = %d, dropped = %d, replay = %d", s.Samples, s.Dropped, len(f.replay))
	}
	if s.Disagree != 0 {
		t.Fatalf("identical challenger disagreed %d times: %+v", s.Disagree, e.Disagreements())
	}
	if s.Agree != s.Samples-s.ExtractErrors {
		t.Fatalf("agree = %d, want %d", s.Agree, s.Samples-s.ExtractErrors)
	}
	if s.ChallengerFP != s.ChampionFP {
		t.Fatalf("identical challenger FP %d != champion FP %d", s.ChallengerFP, s.ChampionFP)
	}
	if s.KnownBenign == 0 {
		t.Fatal("no known-benign truth harvested from the store")
	}

	var sb strings.Builder
	e.WriteMetrics(&sb)
	body := sb.String()
	for _, want := range []string{
		"longtail_shadow_samples_total",
		`longtail_rule_hits_total{role="champion",gen="1"`,
		`longtail_rule_hits_total{role="challenger",gen="challenger-1"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestFlushWaitsForTheBatchesBeforeIt: Flush is the barrier gates and
// tests synchronize on; a batch tapped before it is scored when it returns.
func TestFlushWaitsForTheBatchesBeforeIt(t *testing.T) {
	f := sharedFixture(t)
	scoring, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	e := newEval(t, f, func(dataset.FileHash) (bool, bool) {
		once.Do(func() { close(scoring); <-release })
		return false, false
	})
	e.Tap()(f.replay[:1], champVerdicts(t, f, f.replay[:1]))
	<-scoring
	time.AfterFunc(50*time.Millisecond, func() { close(release) })
	e.Flush()
	select {
	case <-release:
	default:
		t.Fatal("Flush returned while a batch tapped before it was still being scored")
	}
}

func TestEvaluatorScoresBadChallenger(t *testing.T) {
	f := sharedFixture(t)
	e := newEval(t, f, storeTruth(f))
	e.SetChallenger(badChallenger(t, f), "challenger-1")
	feedAll(t, f, e)

	s := e.Snapshot()
	if s.Disagree == 0 {
		t.Fatal("over-broad challenger produced no disagreements")
	}
	if s.ChallengerFP == 0 {
		t.Fatal("over-broad challenger produced no false positives")
	}
	if rate := s.ChallengerFPRate(); rate <= 0.001 {
		t.Fatalf("bad challenger FP rate %.4f not over the 0.1%% budget", rate)
	}
	if len(e.Disagreements()) == 0 {
		t.Fatal("no disagreement examples retained")
	}
}

func TestHarvesterDelayedRescans(t *testing.T) {
	f := sharedFixture(t)
	h, err := NewHarvester(avsim.NewDefaultService(), f.ex, f.res.Samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(f.replay)
	st := h.Stats()
	if st.PendingScans == 0 {
		t.Fatal("no re-scans scheduled")
	}

	first := f.replay[0].Time
	if n := h.Advance(first.Add(24 * time.Hour)); n != 0 {
		t.Fatalf("harvested %d instances before any re-scan was due", n)
	}
	due := first.Add(labeling.DefaultRescanDelay).AddDate(0, 2, 0)
	n := h.Advance(due)
	if n == 0 {
		t.Fatal("no instances harvested at t+2y")
	}
	if got := h.Stats().Harvested; got != n {
		t.Fatalf("Stats.Harvested = %d, want %d", got, n)
	}

	// Harvested truth must agree with the offline labeler on every
	// confidently labeled file.
	truth := h.Truth()
	checked := 0
	for i := range f.replay {
		mal, known := truth(f.replay[i].File)
		if !known {
			continue
		}
		checked++
		want := f.res.Store.Label(f.replay[i].File)
		if mal && want != dataset.LabelMalicious {
			t.Fatalf("file %s harvested malicious, store says %v", f.replay[i].File, want)
		}
		if !mal && want != dataset.LabelBenign {
			t.Fatalf("file %s harvested benign, store says %v", f.replay[i].File, want)
		}
	}
	if checked == 0 {
		t.Fatal("no harvested files to check")
	}

	// Training is base + harvested.
	if got, want := len(h.Training(f.base)), len(f.base)+n; got != want {
		t.Fatalf("Training returned %d instances, want %d", got, want)
	}
}

func TestHarvesterDrainsLedger(t *testing.T) {
	f := sharedFixture(t)
	h, err := NewHarvester(avsim.NewDefaultService(), f.ex, f.res.Samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate served traffic through a real ledger.
	l, _, err := serve.OpenLedger(serve.LedgerOptions{Journal: journalOpts(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	events := f.replay[:30]
	var wire []byte
	for i := range events {
		if wire, err = export.AppendEventLine(wire, &events[i]); err != nil {
			t.Fatal(err)
		}
		wire = append(wire, '\n')
	}
	if err := l.AcceptWire("batch-1", events, string(wire)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Result("batch-1", champVerdicts(t, f, events)); err != nil {
		t.Fatal(err)
	}
	if n := h.DrainLedger(l); n != 1 {
		t.Fatalf("DrainLedger = %d, want 1", n)
	}
	if n := h.DrainLedger(l); n != 0 {
		t.Fatalf("second DrainLedger = %d, want 0 (already drained)", n)
	}
	if st := h.Stats(); st.ServedFiles == 0 {
		t.Fatal("no served verdicts recorded")
	}
}

func journalOpts(t *testing.T) journal.Options {
	t.Helper()
	return journal.Options{Dir: t.TempDir()}
}

// fakePromoter records what reaches the reload path.
type fakePromoter struct {
	mu    sync.Mutex
	calls int
	ctx   context.Context // the last call's
	rules []byte
	err   error
}

func (p *fakePromoter) Promote(ctx context.Context, rulesJSON []byte) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	p.ctx = ctx
	p.rules = append([]byte(nil), rulesJSON...)
	if p.err != nil {
		return 0, p.err
	}
	return 2, nil
}

func TestManagerRejectsOverBudgetChallenger(t *testing.T) {
	f := sharedFixture(t)
	e := newEval(t, f, storeTruth(f))
	p := &fakePromoter{}
	m, err := NewManager(Config{MinShadowSamples: 50}, p, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.BeginShadow(badChallenger(t, f)); err != nil {
		t.Fatal(err)
	}
	// Not enough evidence yet: the gate must hold.
	if st, err := m.Tick(context.Background()); err != nil || st != StateShadowing {
		t.Fatalf("early Tick = %v, %v; want shadowing", st, err)
	}
	feedAll(t, f, e)
	st, err := m.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st != StateRejected {
		t.Fatalf("state = %v, want rejected (stats %+v)", st, m.Aggregate())
	}
	if p.calls != 0 {
		t.Fatal("rejected challenger reached the promoter")
	}
	status := m.Status()
	if status["state"] != "rejected" {
		t.Fatalf("status = %v", status)
	}
}

func TestManagerPromotesWithinBudget(t *testing.T) {
	f := sharedFixture(t)
	e := newEval(t, f, storeTruth(f))
	p := &fakePromoter{}
	m, err := NewManager(Config{MinShadowSamples: 50, FPBudget: 0.05}, p, e)
	if err != nil {
		t.Fatal(err)
	}
	// The champion (FP rate ~3% on this fixture's small known-benign
	// set) fits the configured 5% budget.
	if _, err := m.BeginShadow(f.champion); err != nil {
		t.Fatal(err)
	}
	feedAll(t, f, e)
	type tickKey struct{}
	st, err := m.Tick(context.WithValue(context.Background(), tickKey{}, "tick"))
	if err != nil {
		t.Fatal(err)
	}
	if st != StatePromoted {
		t.Fatalf("state = %v, want promoted (stats %+v)", st, m.Aggregate())
	}
	if p.calls != 1 {
		t.Fatalf("promoter called %d times, want 1", p.calls)
	}
	if p.ctx.Value(tickKey{}) != "tick" {
		t.Fatal("the promotion did not run on Tick's context: its caller's deadline and cancellation stop at the manager")
	}
	// The promoted payload must round-trip through the reload loader.
	clf, err := serve.LoadRules(strings.NewReader(string(p.rules)), classify.Reject)
	if err != nil {
		t.Fatalf("promoted rules failed reload validation: %v", err)
	}
	if len(clf.Rules) != len(f.champion.Rules) {
		t.Fatalf("promoted %d rules, champion has %d", len(clf.Rules), len(f.champion.Rules))
	}
	if m.PromotedGeneration() != 2 {
		t.Fatalf("promoted generation = %d, want 2", m.PromotedGeneration())
	}
	// A second challenger can start after resolution.
	if _, err := m.BeginShadow(f.champion); err != nil {
		t.Fatal(err)
	}
}

func TestManagerRunResolves(t *testing.T) {
	f := sharedFixture(t)
	e := newEval(t, f, storeTruth(f))
	p := &fakePromoter{}
	m, err := NewManager(Config{MinShadowSamples: 50, FPBudget: 0.05, Interval: 5 * time.Millisecond}, p, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.BeginShadow(f.champion); err != nil {
		t.Fatal(err)
	}
	resolved := make(chan State, 1)
	go func() {
		st, err := m.Run(context.Background())
		if err != nil {
			t.Error(err)
		}
		resolved <- st
	}()
	feedAll(t, f, e)
	select {
	case st := <-resolved:
		if st != StatePromoted {
			t.Fatalf("Run resolved %v, want promoted", st)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not resolve")
	}
}

func TestManagerRunHonorsContext(t *testing.T) {
	f := sharedFixture(t)
	e := newEval(t, f, storeTruth(f))
	m, err := NewManager(Config{Interval: time.Millisecond}, &fakePromoter{}, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.BeginShadow(f.champion); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Run(ctx); err == nil {
		t.Fatal("Run returned nil on canceled context")
	}
}
