package part

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// twoClassSchema builds a small schema: one nominal "signer", one
// nominal "packer", one numeric "rank".
func twoClassSchema(t *testing.T) *Dataset {
	t.Helper()
	d, err := NewDataset([]Attribute{
		{Name: "signer"},
		{Name: "packer"},
		{Name: "rank", Numeric: true},
	}, []string{"benign", "malicious"})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func addInst(t *testing.T, d *Dataset, signer, packer string, rank float64, class int) {
	t.Helper()
	if err := d.Add(Instance{
		Values: []Value{{S: signer}, {S: packer}, {F: rank}},
		Class:  class,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset(nil, []string{"a", "b"}); err == nil {
		t.Error("empty attrs accepted")
	}
	if _, err := NewDataset([]Attribute{{Name: "x"}}, []string{"a"}); err == nil {
		t.Error("single class accepted")
	}
}

func TestAddValidation(t *testing.T) {
	d := twoClassSchema(t)
	if err := d.Add(Instance{Values: []Value{{S: "x"}}, Class: 0}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := d.Add(Instance{Values: []Value{{}, {}, {}}, Class: 9}); err == nil {
		t.Error("out-of-range class accepted")
	}
}

func TestPessimisticErrors(t *testing.T) {
	// Zero observed errors still yield a positive pessimistic estimate.
	if got := pessimisticErrors(0, 10); got <= 0 {
		t.Errorf("pessimisticErrors(0,10) = %v, want > 0", got)
	}
	// More observed errors, higher estimate.
	if pessimisticErrors(2, 10) <= pessimisticErrors(0, 10) {
		t.Error("estimate should grow with observed errors")
	}
	// Estimate bounded by n.
	if got := pessimisticErrors(10, 10); got > 10+1e-9 {
		t.Errorf("estimate %v exceeds n", got)
	}
	if got := pessimisticErrors(0, 0); got != 0 {
		t.Errorf("pessimisticErrors(0,0) = %v", got)
	}
}

func TestLearnSeparableNominal(t *testing.T) {
	d := twoClassSchema(t)
	for i := 0; i < 30; i++ {
		addInst(t, d, "EvilCorp", "NSIS", 1000, 1)
		addInst(t, d, "GoodSoft", "INNO", 50, 0)
	}
	rules, err := (&Learner{}).Learn(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules learned")
	}
	// Every instance must be classified correctly by the decision list.
	for i := range d.Instances {
		class, ok := DecisionList(rules, &d.Instances[i])
		if !ok {
			t.Fatalf("instance %d unmatched", i)
		}
		if class != d.Instances[i].Class {
			t.Fatalf("instance %d misclassified", i)
		}
	}
}

func TestLearnCoversAllTrainingInstances(t *testing.T) {
	d := twoClassSchema(t)
	rng := rand.New(rand.NewSource(5))
	signers := []string{"A", "B", "C", "D", "(none)"}
	packers := []string{"UPX", "INNO", "(none)"}
	for i := 0; i < 400; i++ {
		s := signers[rng.Intn(len(signers))]
		p := packers[rng.Intn(len(packers))]
		rank := float64(rng.Intn(100000))
		class := 0
		// Noisy concept: signer A or B mostly malicious.
		if (s == "A" || s == "B") && rng.Float64() < 0.9 {
			class = 1
		} else if rng.Float64() < 0.05 {
			class = 1
		}
		addInst(t, d, s, p, rank, class)
	}
	rules, err := (&Learner{}).Learn(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Instances {
		if _, ok := DecisionList(rules, &d.Instances[i]); !ok {
			t.Fatalf("training instance %d not covered by decision list", i)
		}
	}
}

func TestLearnNumericSplit(t *testing.T) {
	d := twoClassSchema(t)
	// Malicious iff rank > 500; signers uninformative.
	for i := 0; i < 40; i++ {
		addInst(t, d, "S", "P", float64(i*10), 0)
		addInst(t, d, "S", "P", float64(600+i*10), 1)
	}
	rules, err := (&Learner{}).Learn(d)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range d.Instances {
		if class, ok := DecisionList(rules, &d.Instances[i]); ok && class == d.Instances[i].Class {
			correct++
		}
	}
	if acc := float64(correct) / float64(d.Len()); acc < 0.95 {
		t.Errorf("numeric-concept training accuracy = %.2f, want >= 0.95", acc)
	}
	// At least one rule must use a threshold condition.
	hasNumeric := false
	for _, r := range rules {
		for _, c := range r.Conditions {
			if c.Op == OpLE || c.Op == OpGT {
				hasNumeric = true
			}
		}
	}
	if !hasNumeric {
		t.Error("no numeric condition learned for a numeric concept")
	}
}

func TestLearnEmptyDataset(t *testing.T) {
	d := twoClassSchema(t)
	if _, err := (&Learner{}).Learn(d); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := (&Learner{}).Learn(nil); err == nil {
		t.Error("nil dataset accepted")
	}
}

func TestLearnMaxRules(t *testing.T) {
	d := twoClassSchema(t)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		addInst(t, d, fmt.Sprintf("S%d", rng.Intn(20)), "P", float64(i), rng.Intn(2))
	}
	rules, err := (&Learner{MaxRules: 3}).Learn(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) > 3 {
		t.Errorf("MaxRules ignored: %d rules", len(rules))
	}
}

func TestRuleErrorRateAndFilter(t *testing.T) {
	rules := []Rule{
		{Covered: 100, Errors: 0},
		{Covered: 1000, Errors: 1},
		{Covered: 100, Errors: 10},
	}
	if got := rules[2].ErrorRate(); got != 0.1 {
		t.Errorf("ErrorRate = %v", got)
	}
	if got := (&Rule{}).ErrorRate(); got != 0 {
		t.Errorf("empty rule ErrorRate = %v", got)
	}
	if got := len(FilterByErrorRate(rules, 0.0)); got != 1 {
		t.Errorf("tau=0 kept %d rules, want 1", got)
	}
	if got := len(FilterByErrorRate(rules, 0.001)); got != 2 {
		t.Errorf("tau=0.1%% kept %d rules, want 2", got)
	}
	if got := len(FilterByErrorRate(rules, 0.2)); got != 3 {
		t.Errorf("tau=20%% kept %d rules, want 3", got)
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{
		Conditions: []Condition{
			{AttrName: "file's signer", Op: OpEquals, Value: "SecureInstall"},
			{AttrName: "download domain's Alexa rank", Op: OpGT, Threshold: 100000},
		},
		ClassName: "malicious",
	}
	got := r.String()
	if !strings.Contains(got, `file's signer is "SecureInstall"`) {
		t.Errorf("rule string = %q", got)
	}
	if !strings.Contains(got, "-> file is malicious") {
		t.Errorf("rule string = %q", got)
	}
	unsigned := Rule{
		Conditions: []Condition{{AttrName: "file's signer", Op: OpEquals, Value: "(none)"}},
		ClassName:  "malicious",
	}
	if !strings.Contains(unsigned.String(), "file's signer is absent") {
		t.Errorf("unsigned rule string = %q", unsigned.String())
	}
	empty := Rule{ClassName: "benign"}
	if !strings.Contains(empty.String(), "IF (true)") {
		t.Errorf("default rule string = %q", empty.String())
	}
}

func TestLearnDeterministic(t *testing.T) {
	build := func() []Rule {
		d := twoClassSchema(t)
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 300; i++ {
			s := fmt.Sprintf("S%d", rng.Intn(10))
			class := 0
			if s == "S1" || s == "S2" || rng.Float64() < 0.08 {
				class = 1
			}
			addInst(t, d, s, fmt.Sprintf("P%d", rng.Intn(4)), float64(rng.Intn(1000)), class)
		}
		rules, err := (&Learner{}).Learn(d)
		if err != nil {
			t.Fatal(err)
		}
		return rules
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("rule counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Errorf("rule %d differs:\n%s\n%s", i, a[i].String(), b[i].String())
		}
	}
}

// Property: rules learned at tau=0 have zero training error on the
// instances they covered during learning.
func TestFilterZeroTauProperty(t *testing.T) {
	d := twoClassSchema(t)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		s := fmt.Sprintf("S%d", rng.Intn(15))
		class := rng.Intn(2)
		addInst(t, d, s, fmt.Sprintf("P%d", rng.Intn(5)), float64(rng.Intn(100)), class)
	}
	rules, err := (&Learner{}).Learn(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range FilterByErrorRate(rules, 0) {
		if r.Errors != 0 {
			t.Errorf("tau=0 rule has %d errors: %s", r.Errors, r.String())
		}
	}
}

func TestEntropyHelpers(t *testing.T) {
	d := twoClassSchema(t)
	addInst(t, d, "a", "p", 0, 0)
	addInst(t, d, "b", "p", 0, 0)
	addInst(t, d, "c", "p", 0, 1)
	addInst(t, d, "d", "p", 0, 1)
	if got := d.entropy([]int{0, 1, 2, 3}); math.Abs(got-1) > 1e-12 {
		t.Errorf("entropy = %v, want 1", got)
	}
	if got := d.entropy([]int{0, 1}); got != 0 {
		t.Errorf("pure entropy = %v", got)
	}
	class, count := d.majorityClass([]int{0, 1, 2})
	if class != 0 || count != 2 {
		t.Errorf("majorityClass = (%d, %d)", class, count)
	}
}

func TestRuleSimplify(t *testing.T) {
	r := Rule{
		Conditions: []Condition{
			{AttrIndex: 2, AttrName: "rank", Op: OpLE, Threshold: 108138},
			{AttrIndex: 2, AttrName: "rank", Op: OpLE, Threshold: 30148},
			{AttrIndex: 2, AttrName: "rank", Op: OpLE, Threshold: 21856},
			{AttrIndex: 2, AttrName: "rank", Op: OpGT, Threshold: 2858},
			{AttrIndex: 0, AttrName: "signer", Op: OpEquals, Value: "X"},
			{AttrIndex: 0, AttrName: "signer", Op: OpEquals, Value: "X"},
		},
		Class: 1, ClassName: "malicious", Covered: 7,
	}
	s := r.Simplify()
	if len(s.Conditions) != 3 {
		t.Fatalf("simplified to %d conditions, want 3: %s", len(s.Conditions), s.String())
	}
	var le, gt float64
	for _, c := range s.Conditions {
		switch c.Op {
		case OpLE:
			le = c.Threshold
		case OpGT:
			gt = c.Threshold
		}
	}
	if le != 21856 || gt != 2858 {
		t.Errorf("bounds = (gt %v, le %v), want (2858, 21856)", gt, le)
	}
	if s.Covered != 7 || s.ClassName != "malicious" {
		t.Error("metadata lost in simplification")
	}
}

// Property: a simplified rule matches exactly the same instances.
func TestSimplifyEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	signers := []string{"A", "B", "C"}
	mkRule := func() Rule {
		var conds []Condition
		n := rng.Intn(5) + 1
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				conds = append(conds, Condition{AttrIndex: 0, AttrName: "signer", Op: OpEquals, Value: signers[rng.Intn(3)]})
			case 1:
				conds = append(conds, Condition{AttrIndex: 2, AttrName: "rank", Op: OpLE, Threshold: float64(rng.Intn(1000))})
			default:
				conds = append(conds, Condition{AttrIndex: 2, AttrName: "rank", Op: OpGT, Threshold: float64(rng.Intn(1000))})
			}
		}
		return Rule{Conditions: conds, Class: 1, ClassName: "malicious"}
	}
	for trial := 0; trial < 300; trial++ {
		r := mkRule()
		s := r.Simplify()
		for probe := 0; probe < 50; probe++ {
			inst := Instance{Values: []Value{
				{S: signers[rng.Intn(3)]}, {S: "P"}, {F: float64(rng.Intn(1100) - 50)},
			}}
			if r.Matches(&inst) != s.Matches(&inst) {
				t.Fatalf("rule %s and simplified %s disagree on %+v", r.String(), s.String(), inst)
			}
		}
	}
}

func TestSimplifyAll(t *testing.T) {
	rules := []Rule{
		{Conditions: []Condition{
			{AttrIndex: 2, AttrName: "rank", Op: OpLE, Threshold: 100},
			{AttrIndex: 2, AttrName: "rank", Op: OpLE, Threshold: 50},
		}, Class: 1, ClassName: "malicious"},
		{Conditions: []Condition{
			{AttrIndex: 0, AttrName: "signer", Op: OpEquals, Value: "X"},
		}, Class: 0, ClassName: "benign"},
	}
	out := SimplifyAll(rules)
	if len(out) != 2 {
		t.Fatalf("SimplifyAll returned %d rules", len(out))
	}
	if len(out[0].Conditions) != 1 || out[0].Conditions[0].Threshold != 50 {
		t.Errorf("first rule not simplified: %s", out[0].String())
	}
	if len(out[1].Conditions) != 1 {
		t.Errorf("second rule altered: %s", out[1].String())
	}
}

func TestDecisionListNoMatch(t *testing.T) {
	rules := []Rule{
		{Conditions: []Condition{{AttrIndex: 0, AttrName: "signer", Op: OpEquals, Value: "X"}}, Class: 1},
	}
	inst := Instance{Values: []Value{{S: "Y"}, {S: "P"}, {F: 0}}}
	if _, ok := DecisionList(rules, &inst); ok {
		t.Error("non-matching instance matched")
	}
	if _, ok := DecisionList(nil, &inst); ok {
		t.Error("empty list matched")
	}
}

func TestEncodeRulesUnknownOp(t *testing.T) {
	bad := []Rule{{Conditions: []Condition{{AttrName: "x", Op: Op(99)}}, Class: 1}}
	var sb strings.Builder
	if err := EncodeRules(&sb, bad); err == nil {
		t.Error("unknown op encoded without error")
	}
}

func TestSubtreeErrorEstimateOnDeepTree(t *testing.T) {
	// Build a dataset where pruning must weigh a multi-level subtree:
	// two informative attributes, noisy labels.
	d := twoClassSchema(t)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		s := fmt.Sprintf("S%d", rng.Intn(4))
		p := fmt.Sprintf("P%d", rng.Intn(3))
		class := 0
		if s == "S1" && p == "P1" {
			class = 1
		}
		if rng.Float64() < 0.05 {
			class = 1 - class
		}
		addInst(t, d, s, p, float64(rng.Intn(100)), class)
	}
	tree, err := LearnTree(d)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Size() < 3 {
		t.Errorf("tree collapsed entirely: size %d", tree.Size())
	}
	correct := 0
	for i := range d.Instances {
		if class, ok := tree.Classify(&d.Instances[i]); ok && class == d.Instances[i].Class {
			correct++
		}
	}
	if acc := float64(correct) / float64(d.Len()); acc < 0.85 {
		t.Errorf("pruned-tree accuracy = %.2f", acc)
	}
}
