package classify

import (
	"math/bits"
	"sort"
	"sync"

	"repro/internal/features"
	"repro/internal/part"
)

// ruleIndex is the compiled form of a tau-filtered rule list: instead of
// scanning every rule against every instance, matching starts from one
// "pivot" condition per rule and only verifies the residual conditions
// of rules whose pivot fired. Three pivot shapes cover the whole rule
// grammar:
//
//   - OpEquals pivots live in a hash map keyed by (attribute, value);
//     single-condition equality rules — the dominant shape the paper's
//     learner produces, signer rules above all — become a single map
//     lookup with an empty residual.
//   - OpLE pivots per attribute form an array sorted by ascending
//     threshold; the suffix starting at the first threshold >= v is
//     exactly the set of satisfied pivots, found by one binary search.
//   - OpGT pivots per attribute form the mirror image: the prefix of
//     thresholds strictly below v.
//
// For multi-condition rules the pivot is the equality condition with the
// globally rarest (attribute, value) pair — the most selective probe —
// falling back to the first numeric condition for all-numeric rules.
//
// Matches are collected into a pooled bitset and emitted in ascending
// rule order, so the result is the same index set in the same order as
// the reference linear scan (matchedRulesLinear, in export_test.go); the
// differential fuzz test in ruleindex_test.go holds the two equal.
type ruleIndex struct {
	eq map[eqKey][]pivotRule
	// eqAttrs lists the attribute slots that own an equality pivot,
	// ascending. A learned rule set pivots on a few attributes (signers
	// above all); probe hashes an instance's value only for those. A
	// pivot on an AttrIndex outside the schema is left out: no instance
	// has a value in such a slot.
	eqAttrs []int
	num     []numPivots // one entry per attribute that has numeric pivots

	// always holds rules with no conditions: the linear scan's empty
	// conjunction matches every instance. Train and NewFromRules never
	// produce these, but a hand-built Classifier stays equivalent.
	always []int

	words int // bitset size in uint64 words
	pool  sync.Pool
}

// eqKey identifies one equality-pivot bucket.
type eqKey struct {
	attr int
	val  string
}

// pivotRule is one rule reachable through a pivot: the rule's index in
// Classifier.Rules plus the conditions left to verify once the pivot
// fired (every condition except the pivot itself).
type pivotRule struct {
	rule  int
	resid []part.Condition
}

// numEntry is one numeric pivot threshold.
type numEntry struct {
	threshold float64
	pivotRule
}

// numPivots holds the sorted threshold arrays of one attribute.
type numPivots struct {
	attr int
	// le is sorted by ascending threshold: v <= t holds for the suffix
	// starting at the first t >= v.
	le []numEntry
	// gt is sorted by ascending threshold: t < v holds for the prefix
	// ending before the first t >= v.
	gt []numEntry
}

// nominalAt mirrors the string slot toPartInstance fills for attr:
// the instance's nominal value for the seven nominal attributes and ""
// for the numeric Alexa-rank slot.
func nominalAt(in *features.Instance, attr int) string {
	if attr < features.NumNominal {
		return in.Nominal(attr)
	}
	return ""
}

// numericAt mirrors the float slot toPartInstance fills for attr:
// the Alexa rank for the numeric slot and 0 for nominal attributes.
func numericAt(in *features.Instance, attr int) float64 {
	if attr == features.NumNominal {
		return float64(in.AlexaRank)
	}
	return 0
}

// condHolds evaluates one condition directly against a feature
// instance, equivalent to part.Condition.Matches on the toPartInstance
// conversion (including an unknown operator matching nothing).
func condHolds(c *part.Condition, in *features.Instance) bool {
	switch c.Op {
	case part.OpEquals:
		return nominalAt(in, c.AttrIndex) == c.Value
	case part.OpLE:
		return numericAt(in, c.AttrIndex) <= c.Threshold
	case part.OpGT:
		return numericAt(in, c.AttrIndex) > c.Threshold
	default:
		return false
	}
}

func residHolds(resid []part.Condition, in *features.Instance) bool {
	for i := range resid {
		if !condHolds(&resid[i], in) {
			return false
		}
	}
	return true
}

// buildIndex compiles rules. The rule slice must not be mutated
// afterwards (Classifier treats rule sets as immutable once built).
func buildIndex(rules []part.Rule) *ruleIndex {
	ix := &ruleIndex{
		eq:    make(map[eqKey][]pivotRule),
		words: (len(rules) + 63) / 64,
	}
	ix.pool.New = func() any {
		s := make([]uint64, ix.words)
		return &s
	}
	// Global (attribute, value) frequencies decide pivot selectivity:
	// the rarer the pair across the whole rule set, the fewer residual
	// verifications a probe of its bucket costs.
	freq := make(map[eqKey]int)
	for ri := range rules {
		for _, c := range rules[ri].Conditions {
			if c.Op == part.OpEquals {
				freq[eqKey{c.AttrIndex, c.Value}]++
			}
		}
	}
	numByAttr := make(map[int]*numPivots)
	var ownsEq [features.NumNominal + 1]bool
	for ri := range rules {
		conds := rules[ri].Conditions
		if len(conds) == 0 {
			ix.always = append(ix.always, ri)
			continue
		}
		pivot, bestFreq, firstNum := -1, 0, -1
		for ci := range conds {
			switch conds[ci].Op {
			case part.OpEquals:
				if f := freq[eqKey{conds[ci].AttrIndex, conds[ci].Value}]; pivot < 0 || f < bestFreq {
					pivot, bestFreq = ci, f
				}
			case part.OpLE, part.OpGT:
				if firstNum < 0 {
					firstNum = ci
				}
			}
		}
		if pivot < 0 {
			pivot = firstNum
		}
		if pivot < 0 {
			// Only unknown operators: the linear scan can never match
			// this rule, so the index simply omits it.
			continue
		}
		var resid []part.Condition
		if len(conds) > 1 {
			resid = make([]part.Condition, 0, len(conds)-1)
			resid = append(resid, conds[:pivot]...)
			resid = append(resid, conds[pivot+1:]...)
		}
		pr := pivotRule{rule: ri, resid: resid}
		switch pc := conds[pivot]; pc.Op {
		case part.OpEquals:
			k := eqKey{pc.AttrIndex, pc.Value}
			ix.eq[k] = append(ix.eq[k], pr)
			if pc.AttrIndex >= 0 && pc.AttrIndex < len(ownsEq) {
				ownsEq[pc.AttrIndex] = true
			}
		default:
			np := numByAttr[pc.AttrIndex]
			if np == nil {
				np = &numPivots{attr: pc.AttrIndex}
				numByAttr[pc.AttrIndex] = np
			}
			if pc.Op == part.OpLE {
				np.le = append(np.le, numEntry{pc.Threshold, pr})
			} else {
				np.gt = append(np.gt, numEntry{pc.Threshold, pr})
			}
		}
	}
	for a, owns := range ownsEq {
		if owns {
			ix.eqAttrs = append(ix.eqAttrs, a)
		}
	}
	attrs := make([]int, 0, len(numByAttr))
	for a := range numByAttr {
		attrs = append(attrs, a)
	}
	sort.Ints(attrs)
	for _, a := range attrs {
		np := numByAttr[a]
		sort.SliceStable(np.le, func(i, j int) bool { return np.le[i].threshold < np.le[j].threshold })
		sort.SliceStable(np.gt, func(i, j int) bool { return np.gt[i].threshold < np.gt[j].threshold })
		ix.num = append(ix.num, *np)
	}
	return ix
}

// probe sets the bit of every rule matching in.
func (ix *ruleIndex) probe(in *features.Instance, bitset []uint64) {
	// Equality pivots: one bucket lookup per attribute slot that owns
	// one. The numeric slot's string value is always "", so a single
	// extra key covers (degenerate) equality conditions on it.
	for _, attr := range ix.eqAttrs {
		prs, ok := ix.eq[eqKey{attr, nominalAt(in, attr)}]
		if !ok {
			continue
		}
		for i := range prs {
			if residHolds(prs[i].resid, in) {
				bitset[prs[i].rule>>6] |= 1 << (prs[i].rule & 63)
			}
		}
	}
	for ni := range ix.num {
		np := &ix.num[ni]
		v := numericAt(in, np.attr)
		// First index with threshold >= v, hand-rolled to keep the
		// search closure-free on the hot path.
		if len(np.le) > 0 {
			lo, hi := 0, len(np.le)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if np.le[mid].threshold >= v {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			for _, e := range np.le[lo:] {
				if residHolds(e.resid, in) {
					bitset[e.rule>>6] |= 1 << (e.rule & 63)
				}
			}
		}
		if len(np.gt) > 0 {
			lo, hi := 0, len(np.gt)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if np.gt[mid].threshold >= v {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			for _, e := range np.gt[:lo] {
				if residHolds(e.resid, in) {
					bitset[e.rule>>6] |= 1 << (e.rule & 63)
				}
			}
		}
	}
}

// collect drains the bitset into ascending rule indexes appended to
// dst, clearing it for reuse.
func collect(dst []int, bitset []uint64) []int {
	for w, word := range bitset {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			dst = append(dst, w<<6+b)
			word &^= 1 << b
		}
		bitset[w] = 0
	}
	return dst
}

// match returns the indexes of rules matching any of insts, in
// ascending order — the same set, in the same order, as the linear
// reference scan. A nil result means no rule matched.
func (ix *ruleIndex) match(insts []features.Instance) []int {
	if len(insts) == 0 {
		return nil
	}
	bp := ix.pool.Get().(*[]uint64)
	bitset := *bp
	for i := range insts {
		ix.probe(&insts[i], bitset)
	}
	for _, ri := range ix.always {
		bitset[ri>>6] |= 1 << (ri & 63)
	}
	out := collect(nil, bitset)
	ix.pool.Put(bp)
	return out
}

// matchOne is match for the single-instance serving hot path.
func (ix *ruleIndex) matchOne(in *features.Instance) []int {
	bp := ix.pool.Get().(*[]uint64)
	bitset := *bp
	ix.probe(in, bitset)
	for _, ri := range ix.always {
		bitset[ri>>6] |= 1 << (ri & 63)
	}
	out := collect(nil, bitset)
	ix.pool.Put(bp)
	return out
}
