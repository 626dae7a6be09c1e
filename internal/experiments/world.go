package experiments

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/reputation"
	"repro/internal/serve"
	"repro/internal/synth"
)

// ServingWorld is the deterministic world the serving subsystem runs
// in, and the one place a labeled store becomes one: the feature
// extractor, the rule set trained on the first month, the second month
// as replay traffic, and the offline verdict every served verdict must
// match. The daemon, the binaries' tests, the serve benchmarks and the
// chaos harnesses all build it from (seed, scale, tau), which is what
// makes their verdicts comparable byte for byte.
type ServingWorld struct {
	// Pipeline is the generated corpus; nil when the store was read from
	// a dataset file.
	Pipeline  *Pipeline
	Store     *dataset.Store
	Extractor *features.Extractor
	// Train is month 0 as instances and Rules the rule set trained on it;
	// both are nil until TrainFirstMonth.
	Train []features.Instance
	Rules *classify.Classifier
	// Replay is month 1 in trace order; BootServingWorld and
	// Pipeline.ServingWorld fill it, a daemon never needs it.
	Replay []dataset.DownloadEvent
}

// NewServingWorld wraps a frozen store and its reputation oracle. It
// neither trains nor copies events; what it does is compile the
// extractor's serving context. A daemon takes Extractor.Serving() and
// Rules out of the world and drops the rest — the store, the pipeline,
// Train — which the harnesses that check verdicts offline keep.
func NewServingWorld(store *dataset.Store, oracle *reputation.Oracle) (*ServingWorld, error) {
	ex, err := features.NewExtractor(store, oracle)
	if err != nil {
		return nil, err
	}
	return &ServingWorld{Store: store, Extractor: ex}, nil
}

// TrainFirstMonth trains the conflict-rejecting rule set on month 0 at
// threshold tau and keeps it as w.Rules.
func (w *ServingWorld) TrainFirstMonth(tau float64) error {
	if len(w.Store.Months()) == 0 {
		return fmt.Errorf("experiments: dataset has no events to train on")
	}
	train, err := w.Instances(0)
	if err != nil {
		return err
	}
	rules, err := classify.Train(train, tau, classify.Reject)
	if err != nil {
		return err
	}
	w.Train, w.Rules = train, rules
	return nil
}

// LoadOrTrainRules sets w.Rules from the rule-set file at path, or,
// when path is empty, by TrainFirstMonth(tau) — the choice -rules gives
// the daemon.
func (w *ServingWorld) LoadOrTrainRules(path string, tau float64) (err error) {
	if path == "" {
		return w.TrainFirstMonth(tau)
	}
	w.Rules, err = serve.LoadRulesFile(path, classify.Reject)
	return err
}

// Instances extracts the i-th month's events as classifier instances.
func (w *ServingWorld) Instances(month int) ([]features.Instance, error) {
	return w.Extractor.Instances(w.Store.EventIndexesInMonth(w.Store.Months()[month]))
}

// Month copies the i-th month's events out of the store, in trace order.
func (w *ServingWorld) Month(month int) []dataset.DownloadEvent {
	all := w.Store.Events()
	idx := w.Store.EventIndexesInMonth(w.Store.Months()[month])
	events := make([]dataset.DownloadEvent, len(idx))
	for i, j := range idx {
		events[i] = all[j]
	}
	return events
}

// Offline classifies one event the way the paper's offline classifier
// does and renders it as the record a node serving clf at generation 1
// would send; its Key() is the generation-independent string served
// verdicts are compared on.
func (w *ServingWorld) Offline(clf *classify.Classifier, ev *dataset.DownloadEvent) (serve.VerdictRecord, error) {
	vec, err := w.Extractor.Vector(ev)
	if err != nil {
		return serve.VerdictRecord{}, err
	}
	v, matched := clf.ClassifyFile([]features.Instance{{Vector: vec, File: ev.File}})
	return serve.VerdictRecord{Type: "verdict", File: string(ev.File), Verdict: v.String(), Generation: 1, Rules: matched}, nil
}

// ServingWorld builds the full world over an already generated
// pipeline: trained at tau, month 1 as Replay.
func (p *Pipeline) ServingWorld(tau float64) (*ServingWorld, error) {
	w, err := NewServingWorld(p.Store, p.Result.Oracle)
	if err != nil {
		return nil, err
	}
	if n := len(p.Store.Months()); n < 2 {
		return nil, fmt.Errorf("experiments: serving world needs a training and a replay month, corpus spans %d", n)
	}
	if err := w.TrainFirstMonth(tau); err != nil {
		return nil, err
	}
	w.Pipeline, w.Replay = p, w.Month(1)
	return w, nil
}

// BootServingWorld generates the corpus for cfg and builds the full
// world over it.
func BootServingWorld(cfg synth.Config, tau float64) (*ServingWorld, error) {
	p, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	return p.ServingWorld(tau)
}
