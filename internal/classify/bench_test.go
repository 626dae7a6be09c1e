package classify_test

import (
	"sync"
	"testing"

	"repro/internal/classify"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/synth"
)

// corpus is built once, not once per calibration round of b.N.
var corpus = sync.OnceValues(func() (*experiments.Pipeline, error) {
	return experiments.Run(synth.DefaultConfig(42, 0.02))
})

// BenchmarkClassifyOne times the serving path's match of one instance
// against the rule set a bare longtaild trains at boot: the default
// corpus (seed 42, scale 0.02), its first month, tau 0.001 — 35 rules,
// reported as "rules" so a change of the set shows. The instances are
// the second month's events, in trace order. /indexed is the compiled
// pivot index a daemon matches with (hash-map equality buckets plus
// sorted-threshold binary search) and must stay at 0 allocs/op; /linear
// is the reference scan over the same rules the index is tested against.
func BenchmarkClassifyOne(b *testing.B) {
	p, err := corpus()
	if err != nil {
		b.Fatal(err)
	}
	ex, err := features.NewExtractor(p.Store, p.Result.Oracle)
	if err != nil {
		b.Fatal(err)
	}
	months := p.Store.Months()
	if len(months) < 2 {
		b.Fatalf("corpus spans %d months, want >= 2", len(months))
	}
	train, err := ex.Instances(p.Store.EventIndexesInMonth(months[0]))
	if err != nil {
		b.Fatal(err)
	}
	clf, err := classify.Train(train, 0.001, classify.Reject)
	if err != nil {
		b.Fatal(err)
	}
	events := p.Store.Events()
	var insts []features.Instance
	for _, i := range p.Store.EventIndexesInMonth(months[1]) {
		vec, err := ex.Vector(&events[i])
		if err != nil {
			b.Fatal(err)
		}
		insts = append(insts, features.Instance{Vector: vec, File: events[i].File})
	}
	for _, tc := range []struct {
		name        string
		classifyOne func(*features.Instance) (classify.Verdict, []int)
	}{{"indexed", clf.ClassifyOne}, {"linear", clf.ClassifyOneLinear}} {
		b.Run(tc.name, func(b *testing.B) {
			matched := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v, _ := tc.classifyOne(&insts[i%len(insts)]); v != classify.VerdictNone {
					matched++
				}
			}
			b.ReportMetric(float64(len(clf.Rules)), "rules")
			b.ReportMetric(float64(matched)/float64(b.N), "matched-share")
		})
	}
}
