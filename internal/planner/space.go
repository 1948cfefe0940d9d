package planner

import (
	"fmt"
	"math/bits"
)

// PlanSpace exposes the optimizer's plan-construction primitives — scan
// candidates, typed join construction with cost/cardinality estimates, and
// top-of-plan finishing — so learned optimizers that build whole plans
// themselves (the Neo and DQ baselines) share the same physical algebra,
// estimates, and executor as the native optimizer.
type PlanSpace struct {
	opt *Optimizer
	q   *Query
	est *estimates
}

// NewSpace analyzes cardinalities for a query and returns its plan space.
func (o *Optimizer) NewSpace(q *Query) (*PlanSpace, error) {
	est, err := o.estimate(q)
	if err != nil {
		return nil, err
	}
	return &PlanSpace{opt: o, q: q, est: est}, nil
}

// NumRelations returns the relation count.
func (s *PlanSpace) NumRelations() int { return len(s.q.Scans) }

// Query returns the analyzed query.
func (s *PlanSpace) Query() *Query { return s.q }

// RowsOf estimates the joint cardinality of a relation subset.
func (s *PlanSpace) RowsOf(mask uint32) float64 { return s.est.rowsOf(s.q, mask) }

// Scan returns the cheapest access path for one relation under the hints.
func (s *PlanSpace) Scan(rel int, h Hints) (*Node, error) {
	si := s.q.Scans[rel]
	cands := s.opt.scanCands(si, s.est.tstats[rel])
	p := penalties(h)
	c, _ := cheapestScan(cands, &p)
	return scanNode(si, cands[c], scanCols(si), s.est.filtered[rel], &p), nil
}

// Connected reports whether a join edge links the two subsets.
func (s *PlanSpace) Connected(lmask, rmask uint32) bool {
	for _, e := range s.q.Edges {
		if _, ok := e.crosses(lmask, rmask); ok {
			return true
		}
	}
	return false
}

// Join constructs a join of the given operator over two subplans covering
// the given relation masks, with keys resolved and estimates filled in.
// For OpNestLoop with a single-relation right side it automatically uses a
// parameterized index inner when one is available. Returns nil when no
// join predicate connects the sides or the operator cannot apply.
func (s *PlanSpace) Join(op Op, left, right *Node, lmask, rmask uint32) *Node {
	in, ok := joinInputsOf(s.q, left, right, lmask, rmask, s.RowsOf(lmask|rmask))
	if !ok {
		return nil
	}
	p := penalties(AllOn())
	switch op {
	case OpHashJoin:
		return in.hashJoin(&p)
	case OpMergeJoin:
		return in.mergeJoin(&p)
	case OpNestLoop:
		nl := in.nestLoop(&p)
		if inl := s.opt.indexNestLoop(&in, s.q, s.est, rmask, &p); inl != nil && inl.EstCost < nl.EstCost {
			return inl
		}
		return nl
	}
	return nil
}

// Finish adds aggregation, ordering, projection, and limit on top of a
// completed join tree.
func (s *PlanSpace) Finish(root *Node) (*Node, error) {
	if bits.OnesCount32(s.coverage(root)) != len(s.q.Scans) {
		return nil, fmt.Errorf("planner: plan does not cover all relations")
	}
	return s.opt.buildTop(s.q, root)
}

// coverage computes which relations a subtree covers.
func (s *PlanSpace) coverage(n *Node) uint32 {
	var mask uint32
	n.Walk(func(x *Node) {
		if x.IsScan() {
			for i, si := range s.q.Scans {
				if si.Alias == x.Alias {
					mask |= 1 << i
				}
			}
		}
	})
	return mask
}

// Coverage is the exported form of coverage for search code.
func (s *PlanSpace) Coverage(n *Node) uint32 { return s.coverage(n) }
