package part

import "fmt"

// Tree is a fully grown, pessimistically pruned C4.5-style decision
// tree. The paper argues its rule-based classifier improves on "regular
// decision trees" because inaccurate branches can be dropped (tau
// filtering) and conflicting evidence rejected; this full tree is the
// baseline that argument compares against (see BenchmarkAblationTreeVsRules).
type Tree struct {
	root *treeNode
	d    *Dataset
}

// LearnTree builds a complete decision tree over the dataset (every
// subset expanded, unlike the partial trees PART grows).
func LearnTree(d *Dataset) (*Tree, error) {
	if d == nil || d.Len() == 0 {
		return nil, fmt.Errorf("part: empty dataset")
	}
	b := &builder{d: d}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	return &Tree{root: b.expandFull(idx), d: d}, nil
}

// expandFull grows the tree completely, applying subtree replacement on
// the way back up.
func (b *builder) expandFull(idx []int) *treeNode {
	counts := b.d.classCounts(idx)
	for _, c := range counts {
		if c == len(idx) {
			return b.leafFor(idx)
		}
	}
	if len(idx) < 2*minLeaf {
		return b.leafFor(idx)
	}
	s := b.bestSplit(idx)
	if s == nil {
		return b.leafFor(idx)
	}
	node := &treeNode{count: len(idx)}
	_, maj := b.d.majorityClass(idx)
	node.errs = len(idx) - maj
	node.subsets = s.subsets
	node.children = make([]*treeNode, len(s.subsets))
	node.conds = make([]Condition, len(s.subsets))
	subtreeErr := 0.0
	for bi := range s.subsets {
		cond := Condition{AttrIndex: s.attr, AttrName: b.d.Attrs[s.attr].Name}
		if s.numeric {
			cond.Threshold = s.threshold
			if bi == 0 {
				cond.Op = OpLE
			} else {
				cond.Op = OpGT
			}
		} else {
			cond.Op = OpEquals
			cond.Value = s.values[bi]
		}
		node.conds[bi] = cond
		child := b.expandFull(s.subsets[bi])
		node.children[bi] = child
		subtreeErr += subtreeErrorEstimate(child, len(s.subsets[bi]))
	}
	if pessimisticErrors(node.errs, len(idx)) <= subtreeErr+0.1 {
		return b.leafFor(idx)
	}
	return node
}

// subtreeErrorEstimate sums the pessimistic error estimates of a
// subtree's leaves.
func subtreeErrorEstimate(n *treeNode, count int) float64 {
	if n.leaf {
		return pessimisticErrors(n.errs, count)
	}
	total := 0.0
	for bi, child := range n.children {
		if child != nil {
			total += subtreeErrorEstimate(child, len(n.subsets[bi]))
		}
	}
	return total
}

// Classify walks the tree for one instance. It returns the predicted
// class and true, or (0, false) when the instance falls off the tree
// (a nominal value unseen at training time).
func (t *Tree) Classify(inst *Instance) (int, bool) {
	node := t.root
	for node != nil && !node.leaf {
		next := -1
		for bi := range node.conds {
			if node.conds[bi].Matches(inst) {
				next = bi
				break
			}
		}
		if next < 0 {
			return 0, false
		}
		node = node.children[next]
	}
	if node == nil {
		return 0, false
	}
	return node.class, true
}

// Size returns the number of nodes in the tree.
func (t *Tree) Size() int {
	var count func(n *treeNode) int
	count = func(n *treeNode) int {
		if n == nil {
			return 0
		}
		total := 1
		for _, c := range n.children {
			total += count(c)
		}
		return total
	}
	return count(t.root)
}
