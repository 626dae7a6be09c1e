// Package lifecycle closes the loop the paper leaves open: rules are
// mined once from a labeled window, but the download ecosystem drifts,
// so a production deployment must continuously re-learn. The package
// implements a champion/challenger protocol over the serving stack:
//
//   - a Harvester drains served ground truth — completed batches from
//     the verdict ledger plus delayed t₀+2y AV re-scans (the paper's
//     labeling protocol, Section II-B) — into training instances;
//   - classify.Retrain warm-starts a challenger from the champion's
//     rules over the combined evidence;
//   - an Evaluator shadow-classifies live traffic with the challenger,
//     off the hot path, recording agreement, per-rule efficacy and
//     false positives against harvested truth; the challenger's
//     verdicts are never served;
//   - a Manager gates promotion on the paper's 0.1% FP budget (Section
//     VI-C) plus a minimum shadow-sample count, and promotes through
//     the existing zero-downtime /admin/reload — single node or
//     cluster-wide through the router's generation-consistent fan-out.
//
// Everything here is deterministic given its inputs: clocks are passed
// in by callers, pacing runs through internal/retry, and the package is
// enforced clean of ambient time/rand by the longtailvet determinism
// analyzer.
package lifecycle

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/serve"
)

// TruthFunc reports harvested ground truth for a file: whether it is
// malicious, and whether any confident label exists yet. Implementations
// must be safe for concurrent use (the evaluator worker calls it).
type TruthFunc func(file dataset.FileHash) (malicious, known bool)

// Stats is one shadow run's aggregate scoreboard.
type Stats struct {
	// Samples is how many events were shadow-classified; Agree and
	// Disagree partition them by whether challenger and champion issued
	// the same verdict.
	Samples  uint64
	Agree    uint64
	Disagree uint64
	// ExtractErrors counts events whose features could not be extracted
	// for the shadow pass.
	ExtractErrors uint64
	// KnownBenign / KnownMalicious count shadowed events with harvested
	// ground truth.
	KnownBenign    uint64
	KnownMalicious uint64
	// ChampionFP / ChallengerFP count malicious verdicts on known-benign
	// files — the numerators of the paper's FP budget.
	ChampionFP   uint64
	ChallengerFP uint64
	// ChampionDetected / ChallengerDetected count malicious verdicts on
	// known-malicious files.
	ChampionDetected   uint64
	ChallengerDetected uint64
	// Dropped counts tapped batches shed because the shadow queue was
	// full — the price of staying off the hot path.
	Dropped uint64
}

// ChallengerFPRate returns ChallengerFP / KnownBenign (0 when no benign
// truth has been harvested yet — the promotion gate separately requires
// nonzero KnownBenign).
func (s Stats) ChallengerFPRate() float64 {
	if s.KnownBenign == 0 {
		return 0
	}
	return float64(s.ChallengerFP) / float64(s.KnownBenign)
}

// add folds o into s (Dropped included).
func (s *Stats) add(o Stats) {
	s.Samples += o.Samples
	s.Agree += o.Agree
	s.Disagree += o.Disagree
	s.ExtractErrors += o.ExtractErrors
	s.KnownBenign += o.KnownBenign
	s.KnownMalicious += o.KnownMalicious
	s.ChampionFP += o.ChampionFP
	s.ChallengerFP += o.ChallengerFP
	s.ChampionDetected += o.ChampionDetected
	s.ChallengerDetected += o.ChallengerDetected
	s.Dropped += o.Dropped
}

// Disagreement is one champion/challenger verdict split, kept in a
// bounded ring for the shadow-evaluation report.
type Disagreement struct {
	File            string `json:"file"`
	Champion        string `json:"champion"`
	Challenger      string `json:"challenger"`
	ChampionRules   []int  `json:"championRules,omitempty"`
	ChallengerRules []int  `json:"challengerRules,omitempty"`
	// Truth is "benign", "malicious" or "" (no harvested label).
	Truth string `json:"truth,omitempty"`
}

// ruleKey identifies one per-rule counter series: the serving role
// ("champion" or "challenger"), the generation label (the numeric
// rule-set generation for champions, the challenger label while
// shadowing), and the rule index within that rule set.
type ruleKey struct {
	role string
	gen  string
	rule int
}

// ruleCounts is one rule's efficacy tally: matches contributing to
// verdicts, and matches contributing to false-positive verdicts.
type ruleCounts struct {
	hits uint64
	fps  uint64
}

// challengerState pins one shadow run's classifier and label.
type challengerState struct {
	clf   *classify.Classifier
	label string
}

// evalBatch is one tapped batch copied off the serving path, or a flush
// sentinel (flush != nil).
type evalBatch struct {
	events   []dataset.DownloadEvent
	verdicts []serve.VerdictRecord
	flush    chan struct{}
}

// Evaluator shadow-classifies tapped traffic with a challenger rule set
// and scores both generations against harvested ground truth. The tap
// side only copies the batch into a bounded queue (dropping on
// overflow); a single worker goroutine does the feature extraction and
// classification, so the serving hot path never pays for shadowing.
type Evaluator struct {
	ex    *features.Extractor
	truth TruthFunc

	feed chan evalBatch
	quit chan struct{}
	done chan struct{}
	stop sync.Once

	challenger atomic.Pointer[challengerState]
	dropped    atomic.Uint64

	mu    sync.Mutex
	stats Stats                   // guarded by mu
	rules map[ruleKey]*ruleCounts // guarded by mu
	ring  []Disagreement          // guarded by mu
}

const (
	// shadowQueueSize bounds the shadow batch queue; a full queue drops
	// batches rather than blocking the serving path.
	shadowQueueSize = 256
	// disagreementRingSize bounds the retained disagreement examples.
	disagreementRingSize = 128
)

// NewEvaluator starts an evaluator. truth supplies harvested ground
// truth and may be nil (no FP accounting until one is set via the
// constructor — the FP gate then never passes, which is the safe
// default).
func NewEvaluator(ex *features.Extractor, truth TruthFunc) (*Evaluator, error) {
	if ex == nil {
		return nil, fmt.Errorf("lifecycle: nil extractor")
	}
	e := &Evaluator{
		ex:    ex,
		truth: truth,
		feed:  make(chan evalBatch, shadowQueueSize),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
		rules: make(map[ruleKey]*ruleCounts),
	}
	go e.worker()
	return e, nil
}

// Close stops the worker. Remove the engine tap first; tapped batches
// arriving after Close are dropped (never a panic).
func (e *Evaluator) Close() {
	e.stop.Do(func() { close(e.quit) })
	<-e.done
}

// Tap returns the serve.BatchTap feeding this evaluator: it copies the
// batch (the engine's slices belong to the request) and never blocks —
// overflow is counted in Stats.Dropped.
func (e *Evaluator) Tap() serve.BatchTap {
	return func(events []dataset.DownloadEvent, verdicts []serve.VerdictRecord) {
		b := evalBatch{
			events:   append([]dataset.DownloadEvent(nil), events...),
			verdicts: append([]serve.VerdictRecord(nil), verdicts...),
		}
		select {
		case e.feed <- b:
		default:
			e.dropped.Add(1)
		}
	}
}

// SetChallenger installs the rule set to shadow under the given
// generation label and resets the current run's scoreboard (per-rule
// champion history persists across runs — that is the decay trend).
func (e *Evaluator) SetChallenger(clf *classify.Classifier, label string) {
	e.mu.Lock()
	e.stats = Stats{}
	e.ring = nil
	for k := range e.rules {
		if k.role == "challenger" {
			delete(e.rules, k)
		}
	}
	e.mu.Unlock()
	e.challenger.Store(&challengerState{clf: clf, label: label})
}

// ClearChallenger ends the shadow run; tapped batches still score the
// champion's per-rule counters.
func (e *Evaluator) ClearChallenger() { e.challenger.Store(nil) }

// Flush blocks until every batch tapped before the call has been
// processed — the synchronization point for gates and tests.
func (e *Evaluator) Flush() {
	fl := evalBatch{flush: make(chan struct{})}
	select {
	case e.feed <- fl:
		select {
		case <-fl.flush:
		case <-e.done:
		}
	case <-e.done:
	}
}

// Snapshot returns the current run's aggregate stats.
func (e *Evaluator) Snapshot() Stats {
	e.mu.Lock()
	s := e.stats
	e.mu.Unlock()
	s.Dropped = e.dropped.Load()
	return s
}

// Disagreements returns the retained disagreement examples.
func (e *Evaluator) Disagreements() []Disagreement {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Disagreement(nil), e.ring...)
}

func (e *Evaluator) worker() {
	defer close(e.done)
	for {
		select {
		case <-e.quit:
			return
		case b := <-e.feed:
			if b.flush != nil {
				close(b.flush)
				continue
			}
			e.process(b)
		}
	}
}

var maliciousVerdict = classify.VerdictMalicious.String()

// process scores one batch: champion per-rule counters always (the
// serving verdicts are free); the full shadow pass only while a
// challenger is installed.
func (e *Evaluator) process(b evalBatch) {
	cs := e.challenger.Load()
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range b.events {
		ev := &b.events[i]
		vr := &b.verdicts[i]
		if vr.Error != "" {
			continue
		}
		var mal, known bool
		if e.truth != nil {
			mal, known = e.truth(ev.File)
		}
		champMal := vr.Verdict == maliciousVerdict
		champGen := strconv.FormatUint(vr.Generation, 10)
		for _, ri := range vr.Rules {
			c := e.ruleLocked(ruleKey{role: "champion", gen: champGen, rule: ri})
			c.hits++
			if champMal && known && !mal {
				c.fps++
			}
		}
		if cs == nil {
			continue
		}
		e.stats.Samples++
		vec, err := e.ex.Vector(ev)
		if err != nil {
			e.stats.ExtractErrors++
			continue
		}
		inst := features.Instance{Vector: vec, File: ev.File}
		cv, crules := cs.clf.ClassifyOne(&inst)
		chalMal := cv == classify.VerdictMalicious
		for _, ri := range crules {
			c := e.ruleLocked(ruleKey{role: "challenger", gen: cs.label, rule: ri})
			c.hits++
			if chalMal && known && !mal {
				c.fps++
			}
		}
		truthStr := ""
		if known {
			if mal {
				e.stats.KnownMalicious++
				truthStr = "malicious"
				if champMal {
					e.stats.ChampionDetected++
				}
				if chalMal {
					e.stats.ChallengerDetected++
				}
			} else {
				e.stats.KnownBenign++
				truthStr = "benign"
				if champMal {
					e.stats.ChampionFP++
				}
				if chalMal {
					e.stats.ChallengerFP++
				}
			}
		}
		if cv.String() == vr.Verdict {
			e.stats.Agree++
			continue
		}
		e.stats.Disagree++
		if len(e.ring) < disagreementRingSize {
			e.ring = append(e.ring, Disagreement{
				File:            string(ev.File),
				Champion:        vr.Verdict,
				Challenger:      cv.String(),
				ChampionRules:   vr.Rules,
				ChallengerRules: crules,
				Truth:           truthStr,
			})
		}
	}
}

func (e *Evaluator) ruleLocked(k ruleKey) *ruleCounts {
	c := e.rules[k]
	if c == nil {
		c = &ruleCounts{}
		e.rules[k] = c
	}
	return c
}

// WriteMetrics appends the lifecycle exposition block: shadow-run
// aggregates plus the per-rule hit/FP counters for every generation
// observed — the rule-level efficacy-decay surface. Registered on the
// serving mux via serve.WithMetricsAppender.
func (e *Evaluator) WriteMetrics(w io.Writer) {
	s := e.Snapshot()
	fmt.Fprintf(w, "longtail_shadow_samples_total %d\n", s.Samples)
	fmt.Fprintf(w, "longtail_shadow_agree_total %d\n", s.Agree)
	fmt.Fprintf(w, "longtail_shadow_disagree_total %d\n", s.Disagree)
	fmt.Fprintf(w, "longtail_shadow_dropped_total %d\n", s.Dropped)
	fmt.Fprintf(w, "longtail_shadow_extract_errors_total %d\n", s.ExtractErrors)
	fmt.Fprintf(w, "longtail_shadow_truth_total{label=\"benign\"} %d\n", s.KnownBenign)
	fmt.Fprintf(w, "longtail_shadow_truth_total{label=\"malicious\"} %d\n", s.KnownMalicious)
	fmt.Fprintf(w, "longtail_shadow_fp_total{role=\"champion\"} %d\n", s.ChampionFP)
	fmt.Fprintf(w, "longtail_shadow_fp_total{role=\"challenger\"} %d\n", s.ChallengerFP)
	fmt.Fprintf(w, "longtail_shadow_detected_total{role=\"champion\"} %d\n", s.ChampionDetected)
	fmt.Fprintf(w, "longtail_shadow_detected_total{role=\"challenger\"} %d\n", s.ChallengerDetected)

	e.mu.Lock()
	keys := make([]ruleKey, 0, len(e.rules))
	for k := range e.rules {
		keys = append(keys, k)
	}
	counts := make([]ruleCounts, len(keys))
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].role != keys[j].role {
			return keys[i].role < keys[j].role
		}
		if keys[i].gen != keys[j].gen {
			return keys[i].gen < keys[j].gen
		}
		return keys[i].rule < keys[j].rule
	})
	for i, k := range keys {
		counts[i] = *e.rules[k]
	}
	e.mu.Unlock()
	for i, k := range keys {
		fmt.Fprintf(w, "longtail_rule_hits_total{role=%q,gen=%q,rule=\"%d\"} %d\n", k.role, k.gen, k.rule, counts[i].hits)
		fmt.Fprintf(w, "longtail_rule_fp_total{role=%q,gen=%q,rule=\"%d\"} %d\n", k.role, k.gen, k.rule, counts[i].fps)
	}
}
