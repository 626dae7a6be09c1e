package part

import (
	"fmt"
	"strings"
)

// Rule is one human-readable classification rule: a conjunction of
// conditions implying a class.
type Rule struct {
	Conditions []Condition
	Class      int
	ClassName  string
	// Covered and Errors are training-set statistics: instances matched
	// and matched-but-misclassified.
	Covered int
	Errors  int
}

// Matches reports whether the rule's conditions all hold for inst.
func (r *Rule) Matches(inst *Instance) bool {
	for i := range r.Conditions {
		if !r.Conditions[i].Matches(inst) {
			return false
		}
	}
	return true
}

// ErrorRate returns Errors/Covered (0 when the rule covered nothing).
func (r *Rule) ErrorRate() float64 {
	if r.Covered == 0 {
		return 0
	}
	return float64(r.Errors) / float64(r.Covered)
}

// String renders the rule in the paper's style:
//
//	IF (file's signer is "SecureInstall") -> file is malicious
func (r *Rule) String() string {
	if len(r.Conditions) == 0 {
		return fmt.Sprintf("IF (true) -> file is %s", r.ClassName)
	}
	parts := make([]string, 0, len(r.Conditions))
	for _, c := range r.Conditions {
		switch c.Op {
		case OpEquals:
			if c.Value == "(none)" {
				parts = append(parts, fmt.Sprintf("(%s is absent)", c.AttrName))
			} else {
				parts = append(parts, fmt.Sprintf("(%s is %q)", c.AttrName, c.Value))
			}
		case OpLE:
			parts = append(parts, fmt.Sprintf("(%s <= %.0f)", c.AttrName, c.Threshold))
		case OpGT:
			parts = append(parts, fmt.Sprintf("(%s > %.0f)", c.AttrName, c.Threshold))
		}
	}
	return fmt.Sprintf("IF %s -> file is %s", strings.Join(parts, " AND "), r.ClassName)
}

// Learner runs the PART loop.
type Learner struct {
	// MaxRules bounds the decision list length (0 = unbounded).
	MaxRules int
}

// Learn derives an ordered rule list from the dataset. The final rule
// list covers every training instance; callers that want only
// high-precision rules filter by ErrorRate afterwards (as the paper does
// with its tau threshold).
func (l *Learner) Learn(d *Dataset) ([]Rule, error) {
	if d == nil || d.Len() == 0 {
		return nil, fmt.Errorf("part: empty dataset")
	}
	b := &builder{d: d}
	remaining := make([]int, d.Len())
	for i := range remaining {
		remaining[i] = i
	}
	var rules []Rule
	for len(remaining) > 0 {
		if l.MaxRules > 0 && len(rules) >= l.MaxRules {
			break
		}
		tree := b.expand(remaining)
		leaf, conds := bestLeaf(tree, nil)
		if leaf == nil {
			break
		}
		rule := Rule{
			Conditions: conds,
			Class:      leaf.class,
			ClassName:  d.ClassNames[leaf.class],
		}
		// Compute coverage over the remaining instances and drop them.
		var kept []int
		for _, i := range remaining {
			inst := &d.Instances[i]
			if rule.Matches(inst) {
				rule.Covered++
				if inst.Class != rule.Class {
					rule.Errors++
				}
			} else {
				kept = append(kept, i)
			}
		}
		if rule.Covered == 0 {
			// A root leaf with no conditions covers everything; a
			// conditioned rule covering nothing means the tree stalled.
			break
		}
		rules = append(rules, rule)
		remaining = kept
		if len(rule.Conditions) == 0 {
			break // default rule covers the rest
		}
	}
	return rules, nil
}

// FilterByErrorRate returns the rules with training error rate <= tau,
// preserving order. This is the paper's rule selection step (Table XVI):
// tau=0.0 keeps only rules with zero training error.
func FilterByErrorRate(rules []Rule, tau float64) []Rule {
	var out []Rule
	for _, r := range rules {
		if r.ErrorRate() <= tau+1e-12 {
			out = append(out, r)
		}
	}
	return out
}

// DecisionList classifies with ordered first-match semantics (PART's
// native mode). It returns the class of the first matching rule and
// true, or (0, false) when nothing matches.
func DecisionList(rules []Rule, inst *Instance) (int, bool) {
	for i := range rules {
		if rules[i].Matches(inst) {
			return rules[i].Class, true
		}
	}
	return 0, false
}

// Simplify returns an equivalent rule with redundant conditions removed:
// multiple thresholds on the same numeric attribute collapse to the
// tightest bound on each side, and duplicate nominal equality tests
// dedupe. Partial-tree paths re-split numeric attributes freely, so raw
// PART rules often read like "rank <= 108138 AND rank <= 30148 AND
// rank <= 21856"; analysts should never have to see that.
func (r Rule) Simplify() Rule {
	type bounds struct {
		le    float64
		hasLE bool
		gt    float64
		hasGT bool
	}
	numeric := make(map[int]*bounds)
	seenEq := make(map[int]map[string]struct{})
	var order []Condition
	for _, c := range r.Conditions {
		switch c.Op {
		case OpLE:
			b, ok := numeric[c.AttrIndex]
			if !ok {
				b = &bounds{}
				numeric[c.AttrIndex] = b
				order = append(order, c)
			}
			if !b.hasLE || c.Threshold < b.le {
				b.le, b.hasLE = c.Threshold, true
			}
		case OpGT:
			b, ok := numeric[c.AttrIndex]
			if !ok {
				b = &bounds{}
				numeric[c.AttrIndex] = b
				order = append(order, c)
			}
			if !b.hasGT || c.Threshold > b.gt {
				b.gt, b.hasGT = c.Threshold, true
			}
		case OpEquals:
			set, ok := seenEq[c.AttrIndex]
			if !ok {
				set = make(map[string]struct{})
				seenEq[c.AttrIndex] = set
			}
			if _, dup := set[c.Value]; dup {
				continue
			}
			set[c.Value] = struct{}{}
			order = append(order, c)
		}
	}
	out := Rule{
		Class:     r.Class,
		ClassName: r.ClassName,
		Covered:   r.Covered,
		Errors:    r.Errors,
	}
	emitted := make(map[int]bool)
	for _, c := range order {
		if c.Op == OpEquals {
			out.Conditions = append(out.Conditions, c)
			continue
		}
		if emitted[c.AttrIndex] {
			continue
		}
		emitted[c.AttrIndex] = true
		b := numeric[c.AttrIndex]
		if b.hasGT {
			out.Conditions = append(out.Conditions, Condition{
				AttrIndex: c.AttrIndex, AttrName: c.AttrName,
				Op: OpGT, Threshold: b.gt,
			})
		}
		if b.hasLE {
			out.Conditions = append(out.Conditions, Condition{
				AttrIndex: c.AttrIndex, AttrName: c.AttrName,
				Op: OpLE, Threshold: b.le,
			})
		}
	}
	return out
}

// SimplifyAll applies Simplify to every rule.
func SimplifyAll(rules []Rule) []Rule {
	out := make([]Rule, len(rules))
	for i, r := range rules {
		out[i] = r.Simplify()
	}
	return out
}
