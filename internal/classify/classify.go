// Package classify implements the paper's rule-based classification
// system (Section VI): it trains the PART learner on a month of labeled
// download events, keeps only rules whose training error rate is at most
// tau, and uses the surviving rules to classify the next month's test
// files and — most importantly — the files for which no ground truth
// exists. When a file matches rules with conflicting classes, the
// classifier rejects it rather than guess, which is the design choice
// the paper credits for its low false-positive rate.
package classify

import (
	"fmt"
	"sort"

	"repro/internal/features"
	"repro/internal/part"
)

// Class indexes into the dataset schema.
const (
	ClassBenign    = 0
	ClassMalicious = 1
)

// ConflictPolicy decides what happens when matched rules disagree.
type ConflictPolicy int

// Policies.
const (
	// Reject refuses to classify files matching conflicting rules (the
	// paper's choice).
	Reject ConflictPolicy = iota
	// MajorityVote picks the class backed by more matching rules,
	// rejecting only exact ties (ablation baseline).
	MajorityVote
)

// Verdict is the classifier's output for one file.
type Verdict int

// Verdicts.
const (
	// VerdictNone: no rule matched; the classifier abstains.
	VerdictNone Verdict = iota
	// VerdictBenign / VerdictMalicious: a consistent classification.
	VerdictBenign
	VerdictMalicious
	// VerdictRejected: conflicting rules matched.
	VerdictRejected
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictNone:
		return "none"
	case VerdictBenign:
		return "benign"
	case VerdictMalicious:
		return "malicious"
	case VerdictRejected:
		return "rejected"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Schema returns the part dataset schema for the eight features.
func Schema() ([]part.Attribute, []string) {
	attrs := make([]part.Attribute, 0, len(features.AttributeNames))
	for i, name := range features.AttributeNames {
		attrs = append(attrs, part.Attribute{
			Name:    name,
			Numeric: i >= features.NumNominal,
		})
	}
	return attrs, []string{"benign", "malicious"}
}

// toPartInstance converts a feature instance.
func toPartInstance(in *features.Instance) part.Instance {
	vals := make([]part.Value, 0, len(features.AttributeNames))
	for i := 0; i < features.NumNominal; i++ {
		vals = append(vals, part.Value{S: in.Nominal(i)})
	}
	vals = append(vals, part.Value{F: float64(in.AlexaRank)})
	class := ClassBenign
	if in.Malicious {
		class = ClassMalicious
	}
	return part.Instance{Values: vals, Class: class, Ref: string(in.File)}
}

// MinRuleCoverage is the minimum number of training instances a
// malicious-concluding rule must have covered to be eligible for
// selection. Rules built on a handful of instances have training error
// zero by construction, so the tau filter alone cannot screen them;
// requiring real support keeps the selected set high-confidence.
const MinRuleCoverage = 5

// MinBenignRuleCoverage is the (lower) support requirement for
// benign-concluding rules: a spurious benign rule costs an abstention or
// a rejection, not a false positive, so the asymmetry matches the
// asymmetric cost the paper's 0.1% FP target encodes.
const MinBenignRuleCoverage = 3

// Classifier is a trained, tau-filtered rule set.
type Classifier struct {
	// AllRules is the full decision list PART produced.
	AllRules []part.Rule
	// Rules is the tau-filtered subset actually used for classification.
	// Treated as immutable once the classifier is built: the compiled
	// index below is derived from it.
	Rules  []part.Rule
	Tau    float64
	Policy ConflictPolicy

	// index is the compiled pivot index every constructor (Train,
	// NewFromRules, Retrain) builds over Rules (see ruleindex.go).
	index *ruleIndex
}

// Train learns a classifier from labeled training instances.
func Train(train []features.Instance, tau float64, policy ConflictPolicy) (*Classifier, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("classify: no training instances")
	}
	attrs, classes := Schema()
	ds, err := part.NewDataset(attrs, classes)
	if err != nil {
		return nil, err
	}
	for i := range train {
		if err := ds.Add(toPartInstance(&train[i])); err != nil {
			return nil, err
		}
	}
	rules, err := (&part.Learner{}).Learn(ds)
	if err != nil {
		return nil, fmt.Errorf("classify: learn: %w", err)
	}
	// Drop the unconditioned default rule PART appends: it would match
	// everything and defeat the high-confidence design.
	var conditioned []part.Rule
	for _, r := range rules {
		if len(r.Conditions) > 0 {
			conditioned = append(conditioned, r)
		}
	}
	// PART's per-rule statistics are computed on the residual instances
	// each rule was grown from; a rule can look error-free there while
	// contradicting training instances an earlier rule removed. Since
	// this classifier applies rules as an unordered set, re-score every
	// rule standalone against the full training set before selecting.
	pinsts := make([]part.Instance, len(train))
	for i := range train {
		pinsts[i] = toPartInstance(&train[i])
	}
	for i := range conditioned {
		r := &conditioned[i]
		r.Covered, r.Errors = 0, 0
		for j := range pinsts {
			if r.Matches(&pinsts[j]) {
				r.Covered++
				if pinsts[j].Class != r.Class {
					r.Errors++
				}
			}
		}
	}
	selected := part.FilterByErrorRate(conditioned, tau)
	var supported []part.Rule
	for _, r := range selected {
		min := MinRuleCoverage
		if r.Class == ClassBenign {
			min = MinBenignRuleCoverage
		}
		if r.Covered >= min {
			supported = append(supported, r)
		}
	}
	selectedRules := part.SimplifyAll(supported)
	return &Classifier{
		AllRules: conditioned,
		// Selected rules are simplified for the analyst: redundant
		// numeric bounds collapse, matching behaviour is unchanged.
		Rules:  selectedRules,
		Tau:    tau,
		Policy: policy,
		index:  buildIndex(selectedRules),
	}, nil
}

// NewFromRules builds a classifier from an externally supplied
// (reviewed or analyst-edited) rule set, skipping learning entirely.
func NewFromRules(rules []part.Rule, policy ConflictPolicy) (*Classifier, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("classify: empty rule set")
	}
	for i, r := range rules {
		if len(r.Conditions) == 0 {
			return nil, fmt.Errorf("classify: rule %d has no conditions", i)
		}
		if r.Class != ClassBenign && r.Class != ClassMalicious {
			return nil, fmt.Errorf("classify: rule %d has class %d", i, r.Class)
		}
	}
	return &Classifier{
		AllRules: rules,
		Rules:    rules,
		Policy:   policy,
		index:    buildIndex(rules),
	}, nil
}

// RuleComposition returns how many selected rules conclude benign and
// malicious (Table XVI's "rules composition").
func (c *Classifier) RuleComposition() (benign, malicious int) {
	for _, r := range c.Rules {
		if r.Class == ClassMalicious {
			malicious++
		} else {
			benign++
		}
	}
	return benign, malicious
}

// matchedRules returns indexes of selected rules matching any of the
// file's instances, through the compiled index.
func (c *Classifier) matchedRules(insts []features.Instance) []int {
	return c.index.match(insts)
}

// ClassifyFile classifies one file given all its event instances.
// It also returns the matching rule indexes for attribution — every
// label traces back to human-readable rules.
func (c *Classifier) ClassifyFile(insts []features.Instance) (Verdict, []int) {
	return c.verdictOf(c.matchedRules(insts))
}

// ClassifyOne classifies a file represented by a single event instance
// — the serving layer's per-event hot path. Equivalent to ClassifyFile
// on a one-element slice, without materializing the slice.
func (c *Classifier) ClassifyOne(in *features.Instance) (Verdict, []int) {
	return c.verdictOf(c.index.matchOne(in))
}

// verdictOf applies the conflict policy to a matched-rule set.
func (c *Classifier) verdictOf(matched []int) (Verdict, []int) {
	if len(matched) == 0 {
		return VerdictNone, nil
	}
	benign, malicious := 0, 0
	for _, ri := range matched {
		if c.Rules[ri].Class == ClassMalicious {
			malicious++
		} else {
			benign++
		}
	}
	switch c.Policy {
	case MajorityVote:
		switch {
		case malicious > benign:
			return VerdictMalicious, matched
		case benign > malicious:
			return VerdictBenign, matched
		default:
			return VerdictRejected, matched
		}
	default: // Reject
		switch {
		case malicious > 0 && benign > 0:
			return VerdictRejected, matched
		case malicious > 0:
			return VerdictMalicious, matched
		default:
			return VerdictBenign, matched
		}
	}
}

// GroupByFile groups instances by file hash, deterministically ordered.
func GroupByFile(insts []features.Instance) [][]features.Instance {
	byFile := make(map[string][]features.Instance)
	for _, in := range insts {
		byFile[string(in.File)] = append(byFile[string(in.File)], in)
	}
	keys := make([]string, 0, len(byFile))
	for k := range byFile {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]features.Instance, 0, len(keys))
	for _, k := range keys {
		out = append(out, byFile[k])
	}
	return out
}
