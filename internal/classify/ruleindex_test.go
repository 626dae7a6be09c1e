package classify

import (
	"fmt"
	"testing"

	"repro/internal/features"
	"repro/internal/part"
)

// The differential harness: every fuzz input decodes into a rule set
// and an instance group, and the compiled index must return exactly the
// matched-rule set — same indexes, same order — as the linear reference
// scan, for the group and for every instance individually.

// fuzzVocab is the nominal-value universe fuzz inputs index into. It
// includes the empty string (the numeric slot's string value) and the
// "(none)" marker so degenerate equality conditions get exercised.
var fuzzVocab = []string{"", "(none)", "AcmeCo", "EvilCorp", "VeriSign", "browser", "UPX", "Thawte"}

// fuzzThresholds covers negative, zero, interior, boundary and
// beyond-UnrankedValue cuts, including a duplicate-prone small set so
// sorted threshold arrays see ties.
var fuzzThresholds = []float64{-1, 0, 1, 5.5, 100, 99999.5, 100000, 2_000_000, 3_000_000}

var fuzzRanks = []int{0, 1, 50, 100000, 1_999_999, 2_000_000, -3}

type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// fuzzBadAttrs are the out-of-schema attribute indexes the six highest
// attribute bytes decode to: below zero, just past the numeric slot,
// and far beyond any width a per-attribute mask or array could have.
var fuzzBadAttrs = []int{-1, 8, 9, 64, 1 << 20, -64}

// decodeRules builds 1..24 rules of 1..4 conditions each. Attribute
// indexes span the full schema including the numeric slot, and the
// operator is unconstrained, so the fuzzer also produces the degenerate
// shapes DecodeRules would reject (equality on the numeric attribute,
// thresholds on nominal ones) — the index must agree with the linear
// scan on those too. An attribute byte of 250 or more yields an index
// outside the schema (see inSchema).
func decodeRules(r *fuzzReader) []part.Rule {
	n := 1 + int(r.next())%24
	rules := make([]part.Rule, 0, n)
	for i := 0; i < n; i++ {
		nc := 1 + int(r.next())%4
		rule := part.Rule{Class: int(r.next()) % 2}
		rule.ClassName = []string{"benign", "malicious"}[rule.Class]
		for c := 0; c < nc; c++ {
			b := int(r.next())
			attr := b % len(features.AttributeNames)
			name := features.AttributeNames[attr]
			if b >= 250 {
				attr, name = fuzzBadAttrs[b-250], "?"
			}
			cond := part.Condition{
				AttrIndex: attr,
				AttrName:  name,
				Op:        part.Op(1 + int(r.next())%3),
			}
			if cond.Op == part.OpEquals {
				cond.Value = fuzzVocab[int(r.next())%len(fuzzVocab)]
			} else {
				cond.Threshold = fuzzThresholds[int(r.next())%len(fuzzThresholds)]
			}
			rule.Conditions = append(rule.Conditions, cond)
		}
		rules = append(rules, rule)
	}
	return rules
}

func decodeInstances(r *fuzzReader) []features.Instance {
	n := int(r.next()) % 5
	insts := make([]features.Instance, 0, n)
	for i := 0; i < n; i++ {
		v := features.Vector{
			FileSigner:    fuzzVocab[int(r.next())%len(fuzzVocab)],
			FileCA:        fuzzVocab[int(r.next())%len(fuzzVocab)],
			FilePacker:    fuzzVocab[int(r.next())%len(fuzzVocab)],
			ProcessSigner: fuzzVocab[int(r.next())%len(fuzzVocab)],
			ProcessCA:     fuzzVocab[int(r.next())%len(fuzzVocab)],
			ProcessPacker: fuzzVocab[int(r.next())%len(fuzzVocab)],
			ProcessType:   fuzzVocab[int(r.next())%len(fuzzVocab)],
			AlexaRank:     fuzzRanks[int(r.next())%len(fuzzRanks)],
		}
		insts = append(insts, features.Instance{
			Vector: v,
			File:   "f1",
		})
	}
	return insts
}

// inSchema splits off the rules the reference scan can evaluate. A
// condition whose AttrIndex lies outside the schema indexes past the
// instance there (no loader lets one through, but a hand-built
// Classifier can hold one); the index must build and probe around such
// a rule without panicking, and must still match every other rule
// exactly as the scan does. local maps a rule's index to its index
// within clean, or -1.
func inSchema(rules []part.Rule) (clean []part.Rule, local []int) {
	local = make([]int, len(rules))
rule:
	for ri, r := range rules {
		local[ri] = -1
		for _, c := range r.Conditions {
			if c.AttrIndex < 0 || c.AttrIndex >= len(features.AttributeNames) {
				continue rule
			}
		}
		local[ri] = len(clean)
		clean = append(clean, r)
	}
	return clean, local
}

// restrict keeps the matches that fall on in-schema rules, renumbered.
func restrict(matched, local []int) []int {
	var out []int
	for _, ri := range matched {
		if local[ri] >= 0 {
			out = append(out, local[ri])
		}
	}
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzRuleIndexEquivalence is the tentpole contract: the compiled index
// and the linear reference scan agree on the matched-rule set (same
// indexes, same order) and hence on verdict and attribution, for every
// decodable rule set and instance group.
func FuzzRuleIndexEquivalence(f *testing.F) {
	f.Add([]byte{3, 1, 0, 1, 2, 0, 2, 1, 3, 4, 5, 6, 7, 8, 2, 1, 0, 3})
	f.Add([]byte("signer rules dominate the paper's selected sets"))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{24, 3, 1, 7, 2, 8, 7, 3, 8, 1, 0, 0, 4, 2, 2, 2, 6, 1, 1, 5, 9, 9, 9})
	// Every pivot on one attribute (four signer rules): probe visits that
	// slot alone, and the other attributes' values must not be missed.
	f.Add([]byte{3, 0, 1, 0, 0, 3, 0, 0, 0, 0, 2, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0,
		4, 3, 1, 1, 1, 1, 1, 5, 2, 2, 0, 0, 0, 0, 0, 0, 0, 1, 3, 3, 3, 3, 3, 3, 6, 0, 2, 2, 2, 2, 2, 2, 4})
	// AttrIndex outside the schema as an equality pivot (-1), as a
	// residual (8) and as a numeric pivot (9), beside one ordinary rule.
	f.Add([]byte{3, 0, 1, 250, 0, 0, 1, 1, 0, 0, 3, 251, 0, 0, 0, 0, 252, 1, 4, 0, 1, 0, 0, 3,
		2, 3, 1, 1, 1, 1, 1, 5, 2, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		rules := decodeRules(r)
		insts := decodeInstances(r)

		indexed := &Classifier{Rules: rules, Policy: Reject, index: buildIndex(rules)}
		clean, local := inSchema(rules)
		linear := &Classifier{Rules: clean, Policy: Reject}

		gotV, gotM := indexed.ClassifyFile(insts)
		wantV, wantM := linear.verdictOf(linear.matchedRulesLinear(insts))
		if !sameInts(restrict(gotM, local), wantM) || (len(clean) == len(rules) && gotV != wantV) {
			t.Fatalf("group mismatch: index (%v, %v) vs linear (%v, %v)\nrules: %+v\ninsts: %+v",
				gotV, gotM, wantV, wantM, rules, insts)
		}
		for i := range insts {
			gotV, gotM := indexed.ClassifyOne(&insts[i])
			wantV, wantM := linear.verdictOf(linear.matchedRulesLinear(insts[i : i+1]))
			if !sameInts(restrict(gotM, local), wantM) || (len(clean) == len(rules) && gotV != wantV) {
				t.Fatalf("instance %d mismatch: index (%v, %v) vs linear (%v, %v)\nrules: %+v\ninst: %+v",
					i, gotV, gotM, wantV, wantM, rules, insts[i])
			}
		}
	})
}

// TestRuleIndexPivotShapes pins the equivalence on handcrafted rule
// sets covering every pivot shape: single-condition equality, shared
// equality buckets, multi-condition rules with residual verification,
// all-numeric rules on both threshold sides, duplicate thresholds,
// equality on the numeric slot, thresholds on nominal slots, an
// unknown-operator rule (never matches) and a condition-free rule
// (always matches).
func TestRuleIndexPivotShapes(t *testing.T) {
	eq := func(attr int, v string) part.Condition {
		return part.Condition{AttrIndex: attr, AttrName: features.AttributeNames[attr], Op: part.OpEquals, Value: v}
	}
	le := func(attr int, th float64) part.Condition {
		return part.Condition{AttrIndex: attr, AttrName: features.AttributeNames[attr], Op: part.OpLE, Threshold: th}
	}
	gt := func(attr int, th float64) part.Condition {
		return part.Condition{AttrIndex: attr, AttrName: features.AttributeNames[attr], Op: part.OpGT, Threshold: th}
	}
	rules := []part.Rule{
		{Conditions: []part.Condition{eq(0, "EvilCorp")}, Class: ClassMalicious, ClassName: "malicious"},
		{Conditions: []part.Condition{eq(0, "EvilCorp"), le(7, 100)}, Class: ClassMalicious, ClassName: "malicious"},
		{Conditions: []part.Condition{eq(0, "AcmeCo")}, Class: ClassBenign, ClassName: "benign"},
		{Conditions: []part.Condition{le(7, 100000)}, Class: ClassBenign, ClassName: "benign"},
		{Conditions: []part.Condition{gt(7, 100000)}, Class: ClassMalicious, ClassName: "malicious"},
		{Conditions: []part.Condition{gt(7, 100000), eq(2, "UPX")}, Class: ClassMalicious, ClassName: "malicious"},
		{Conditions: []part.Condition{le(7, 100000), gt(7, 50)}, Class: ClassBenign, ClassName: "benign"},
		{Conditions: []part.Condition{le(7, 100000)}, Class: ClassMalicious, ClassName: "malicious"},
		{Conditions: []part.Condition{eq(7, "")}, Class: ClassBenign, ClassName: "benign"},
		{Conditions: []part.Condition{le(0, 1)}, Class: ClassBenign, ClassName: "benign"},
		{Conditions: []part.Condition{{AttrIndex: 0, Op: part.Op(99)}}, Class: ClassBenign, ClassName: "benign"},
		{Class: ClassBenign, ClassName: "benign"},
	}
	indexed := &Classifier{Rules: rules, Policy: Reject, index: buildIndex(rules)}

	var insts []features.Instance
	for _, signer := range []string{"EvilCorp", "AcmeCo", "(none)", ""} {
		for _, packer := range []string{"UPX", "(none)"} {
			for _, rank := range fuzzRanks {
				insts = append(insts, features.Instance{
					Vector: features.Vector{FileSigner: signer, FilePacker: packer, AlexaRank: rank},
					File:   "f1",
				})
			}
		}
	}
	for i := range insts {
		got := indexed.matchedRules(insts[i : i+1])
		want := indexed.matchedRulesLinear(insts[i : i+1])
		if !sameInts(got, want) {
			t.Fatalf("inst %d (%+v): index matched %v, linear %v", i, insts[i].Vector, got, want)
		}
	}
	// The whole group at once, and the empty group.
	if got, want := indexed.matchedRules(insts), indexed.matchedRulesLinear(insts); !sameInts(got, want) {
		t.Fatalf("group: index matched %v, linear %v", got, want)
	}
	if got := indexed.matchedRules(nil); got != nil {
		t.Fatalf("empty group matched %v, want nil", got)
	}
}

// TestRuleIndexConcurrentMatch exercises the pooled bitset under
// concurrent matching: one shared classifier, many goroutines, results
// always equal to the linear scan (go test -race covers the data-race
// side).
func TestRuleIndexConcurrentMatch(t *testing.T) {
	var rules []part.Rule
	for i := 0; i < 70; i++ { // >64 rules so the bitset spans two words
		rules = append(rules, part.Rule{
			Conditions: []part.Condition{{
				AttrIndex: 0, AttrName: features.AttributeNames[0],
				Op: part.OpEquals, Value: fmt.Sprintf("signer-%d", i%7),
			}},
			Class: i % 2, ClassName: "x",
		})
	}
	clf, err := NewFromRules(rules, Reject)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for k := 0; k < 200; k++ {
				in := features.Instance{Vector: features.Vector{
					FileSigner: fmt.Sprintf("signer-%d", (g+k)%9),
				}, File: "f"}
				_, got := clf.ClassifyOne(&in)
				_, want := clf.ClassifyOneLinear(&in)
				if !sameInts(got, want) {
					done <- fmt.Errorf("goroutine %d: index %v, linear %v", g, got, want)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
