package core

import (
	"math"

	"bao/internal/nn"
	"bao/internal/planner"
)

// FeatureDim is the per-node feature vector width: a one-hot over the
// physical operators plus the synthetic "null" padding type, followed by
// the optimizer's cardinality and cost estimates (log-scaled) and the
// optional buffer-cache fraction for scan nodes (§3.1.1).
const FeatureDim = int(planner.NumOps) + 1 + 3

// nullTypeIndex is the one-hot slot for binarization padding nodes, and
// residencyIndex the slot of a scan's buffer-cache fraction.
const (
	nullTypeIndex  = int(planner.NumOps)
	residencyIndex = nullTypeIndex + 3
)

// Featurizer converts physical plans into the vector trees Bao's value
// model consumes. CacheFrac, when non-nil, supplies the fraction of a
// table's pages resident in the buffer pool (cache-aware Bao, §3.1.1);
// indexOnly selects index-page rather than heap-page residency, since an
// index-only scan never touches the heap. Leave CacheFrac nil to reproduce
// the cache-oblivious variant. A tensor Vectorize built records the
// residency it was built under, and residencyMatches checks it against the
// live one.
type Featurizer struct {
	CacheFrac func(table string, indexOnly bool) float64
}

// Vectorize binarizes the plan tree and encodes each node.
func (f *Featurizer) Vectorize(root *planner.Node) *nn.Tree {
	// First pass: count nodes after binarization. Binarization gives every
	// one-child node a null right sibling; zero- and two-child nodes are
	// unchanged.
	n := 0
	var count func(p *planner.Node)
	count = func(p *planner.Node) {
		if p == nil {
			return
		}
		n++
		if (p.Left != nil) != (p.Right != nil) {
			n++ // null padding sibling
		}
		count(p.Left)
		count(p.Right)
	}
	count(root)

	t := nn.NewTree(n, FeatureDim)
	next := 0
	var build func(p *planner.Node) int
	build = func(p *planner.Node) int {
		id := next
		next++
		f.encode(t, id, p)
		l, r := p.Left, p.Right
		if l == nil && r != nil {
			l, r = r, nil // normalize single child to the left
		}
		if l != nil {
			t.Left[id] = build(l)
			if r != nil {
				t.Right[id] = build(r)
			} else {
				// Null padding node.
				nid := next
				next++
				t.Feat[nid*FeatureDim+nullTypeIndex] = 1
				t.Right[id] = nid
			}
		}
		return id
	}
	build(root)
	return t
}

// encode writes one plan node's feature vector.
func (f *Featurizer) encode(t *nn.Tree, id int, p *planner.Node) {
	row := t.Feat[id*FeatureDim : (id+1)*FeatureDim]
	row[int(p.Op)] = 1
	base := int(planner.NumOps) + 1
	// Log-scaled cardinality and cost estimates, normalized to roughly
	// [0, 1] over the plausible range (1 .. 1e8).
	row[base] = math.Log1p(math.Max(p.EstRows, 0)) / math.Log(1e8)
	row[base+1] = math.Log1p(math.Max(p.EstCost, 0)) / math.Log(1e8)
	if p.IsScan() {
		row[residencyIndex] = f.residency(p)
	}
}

// residency is scan p's residency feature: the live fraction of its pages
// in the buffer pool, or 0 for a cache-oblivious featurizer.
func (f *Featurizer) residency(p *planner.Node) float64 {
	if f.CacheFrac == nil {
		return 0
	}
	return f.CacheFrac(p.Table, p.Op == planner.OpIndexOnlyScan)
}

// residencyMatches reports whether t, the tensor Vectorize made of plan,
// still carries the live residency of every scan: whether vectorizing plan
// now would rebuild t bit for bit. It walks plan and t together the way
// Vectorize laid t down (a single child normalized to the left, null
// padding rows never visited).
func (f *Featurizer) residencyMatches(plan *planner.Node, t *nn.Tree) bool {
	return f.matchScans(plan, t, 0)
}

func (f *Featurizer) matchScans(p *planner.Node, t *nn.Tree, id int) bool {
	if p.IsScan() && t.Feat[id*FeatureDim+residencyIndex] != f.residency(p) {
		return false
	}
	l, r := p.Left, p.Right
	if l == nil {
		l, r = r, nil
	}
	return (l == nil || f.matchScans(l, t, t.Left[id])) && (r == nil || f.matchScans(r, t, t.Right[id]))
}
