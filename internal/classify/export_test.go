package classify

import (
	"repro/internal/features"
	"repro/internal/part"
)

// matchedRulesLinear is the reference matcher: a linear scan of every
// rule against every instance via the part.Instance conversion. It
// defines the semantics the compiled index must reproduce exactly (the
// differential fuzz test holds the two equal). Each instance is
// converted once per call, not once per (rule, instance) pair.
func (c *Classifier) matchedRulesLinear(insts []features.Instance) []int {
	pis := make([]part.Instance, len(insts))
	for i := range insts {
		pis[i] = toPartInstance(&insts[i])
	}
	var out []int
	for ri := range c.Rules {
		for ii := range pis {
			if c.Rules[ri].Matches(&pis[ii]) {
				out = append(out, ri)
				break
			}
		}
	}
	return out
}

// ClassifyOneLinear is ClassifyOne through the reference scan.
func (c *Classifier) ClassifyOneLinear(in *features.Instance) (Verdict, []int) {
	return c.verdictOf(c.matchedRulesLinear([]features.Instance{*in}))
}
