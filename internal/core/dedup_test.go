package core

import (
	"context"
	"testing"

	"bao/internal/nn"
	"bao/internal/obs"
	"bao/internal/planner"
	"bao/internal/workload"
)

// trainedBao runs enough of the IMDb workload through Bao for the model to
// train, so Select exercises the full dedup → featurize → predict path.
func trainedBao(t *testing.T, cfg Config) *Bao {
	t.Helper()
	e := buildIMDbEngine(t)
	cfg.RetrainEvery = 20
	cfg.Train.MaxEpochs = 5
	b := New(e, cfg)
	inst := workload.IMDb(workload.Config{Scale: 0.12, Queries: 30, Seed: 42})
	for _, q := range inst.Queries {
		if _, _, err := b.Run(q.SQL); err != nil {
			t.Fatalf("%s: %v", q.Template, err)
		}
	}
	if !b.Trained() {
		t.Fatal("model never trained")
	}
	return b
}

func TestPlanFingerprintDistinguishesPlans(t *testing.T) {
	scan := func(table string, rows float64) *planner.Node {
		return &planner.Node{Op: planner.OpSeqScan, Table: table, EstRows: rows, EstCost: rows}
	}
	a := &planner.Node{Op: planner.OpHashJoin, EstRows: 10, EstCost: 30,
		Left: scan("title", 5), Right: scan("cast_info", 7)}
	same := &planner.Node{Op: planner.OpHashJoin, EstRows: 10, EstCost: 30,
		Left: scan("title", 5), Right: scan("cast_info", 7)}
	if planFingerprint(a) != planFingerprint(same) {
		t.Fatal("structurally identical plans got different fingerprints")
	}
	swapped := &planner.Node{Op: planner.OpHashJoin, EstRows: 10, EstCost: 30,
		Left: scan("cast_info", 7), Right: scan("title", 5)}
	if planFingerprint(a) == planFingerprint(swapped) {
		t.Fatal("child order not reflected in fingerprint")
	}
	otherOp := &planner.Node{Op: planner.OpMergeJoin, EstRows: 10, EstCost: 30,
		Left: scan("title", 5), Right: scan("cast_info", 7)}
	if planFingerprint(a) == planFingerprint(otherOp) {
		t.Fatal("operator not reflected in fingerprint")
	}
	// Shape: a right-deep chain must differ from a left-deep chain even
	// when the node multiset is identical.
	left := &planner.Node{Op: planner.OpNestLoop, EstRows: 1, EstCost: 1,
		Left: a, Right: scan("title", 5)}
	right := &planner.Node{Op: planner.OpNestLoop, EstRows: 1, EstCost: 1,
		Left: scan("title", 5), Right: a}
	if planFingerprint(left) == planFingerprint(right) {
		t.Fatal("tree shape not reflected in fingerprint")
	}
}

func TestDedupPlansGroups(t *testing.T) {
	s1 := &planner.Node{Op: planner.OpSeqScan, Table: "title", EstRows: 5, EstCost: 5}
	s2 := &planner.Node{Op: planner.OpSeqScan, Table: "title", EstRows: 5, EstCost: 5}
	s3 := &planner.Node{Op: planner.OpIndexScan, Table: "title", EstRows: 5, EstCost: 2}
	groupOf, groups := DedupPlans([]*planner.Node{s1, s2, s3, s1})
	if groups != 2 {
		t.Fatalf("groups = %d, want 2", groups)
	}
	want := []int{0, 0, 1, 0}
	for i, g := range groupOf {
		if g != want[i] {
			t.Fatalf("armGroup = %v, want %v", groupOf, want)
		}
	}
	// Grouping is by fingerprint: equal within a group, different between
	// the groups' representatives.
	if planFingerprint(s1) != planFingerprint(s2) || planFingerprint(s1) == planFingerprint(s3) {
		t.Fatal("groups do not follow the plan fingerprints")
	}
}

// Dedup must be invisible in the selection outcome: every arm's prediction
// equals what the model says about that arm's own plan, featurized and
// predicted on its own — the reference is computed here, arm by arm, not
// through the product — while Select featurizes and predicts strictly
// fewer trees (counted by bao_plans_deduped_total).
func TestSelectDedupMatchesPerArmPrediction(t *testing.T) {
	sql := "SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id AND t.kind_id = 3 AND t.votes > 1000"

	cfg := FastConfig()
	cfg.Observer = obs.NewObserver(obs.NewRegistry(), nil)
	b := trainedBao(t, cfg)

	sel, err := b.Select(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.UsedModel {
		t.Fatal("model not used")
	}
	if sel.UniquePlans >= len(sel.Plans) {
		t.Fatalf("no dedup happened: %d unique of %d arms", sel.UniquePlans, len(sel.Plans))
	}
	perArm := make([]*nn.Tree, len(sel.Plans))
	for i, p := range sel.Plans {
		perArm[i] = b.Feat.Vectorize(p)
	}
	ref := b.Model.Predict(perArm)
	for i := range ref {
		if sel.Preds[i] != ref[i] {
			t.Fatalf("arm %d: dedup pred %g != its own plan's prediction %g", i, sel.Preds[i], ref[i])
		}
	}
	// The arm chosen from the deduped predictions is a minimum of the
	// per-arm reference too (TestTieBreakStable pins the tie-break order).
	for _, i := range b.state.Load().arms {
		if ref[i] < ref[sel.ArmID] && sel.Plans[i].EstCost <= 100*sel.Plans[sel.ArmID].EstCost {
			t.Fatalf("arm %d's own prediction %g beats chosen arm %d's %g", i, ref[i], sel.ArmID, ref[sel.ArmID])
		}
	}
	if v := cfg.Observer.Snapshot().Counter("bao_plans_deduped_total"); v <= 0 {
		t.Fatalf("bao_plans_deduped_total = %v, want > 0", v)
	}
}

// The merged (prediction, cost) tie-break must be stable: among arms tied
// on both keys the lowest index wins, and a cheaper plan at equal
// prediction is preferred regardless of scan order.
func TestTieBreakStable(t *testing.T) {
	b := trainedBao(t, FastConfig())
	sql := "SELECT COUNT(*) FROM title t WHERE t.kind_id = 3"
	first, err := b.Select(sql)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		sel, err := b.Select(sql)
		if err != nil {
			t.Fatal(err)
		}
		if sel.ArmID != first.ArmID {
			t.Fatalf("trial %d chose arm %d, first chose %d", trial, sel.ArmID, first.ArmID)
		}
		// No selectable arm may strictly dominate the winner on the
		// (prediction, cost, index) order.
		minCost := sel.Plans[sel.ArmID].EstCost
		for _, i := range b.state.Load().arms {
			if sel.Plans[i].EstCost < minCost {
				minCost = sel.Plans[i].EstCost
			}
		}
		for _, i := range b.state.Load().arms {
			if sel.Plans[i].EstCost > minCost*100 {
				continue // outside the cost-sanity band
			}
			if sel.Preds[i] < sel.Preds[sel.ArmID] {
				t.Fatalf("arm %d has lower prediction than chosen arm %d", i, sel.ArmID)
			}
			if sel.Preds[i] == sel.Preds[sel.ArmID] {
				if sel.Plans[i].EstCost < sel.Plans[sel.ArmID].EstCost {
					t.Fatalf("arm %d ties on prediction with cheaper plan than chosen arm %d", i, sel.ArmID)
				}
				if sel.Plans[i].EstCost == sel.Plans[sel.ArmID].EstCost && i < sel.ArmID {
					t.Fatalf("arm %d ties on prediction and cost but has lower index than chosen arm %d", i, sel.ArmID)
				}
			}
		}
	}
}

// TestDedupSharedRoots: planner.PlanArms hands arms with the same plan one
// shared root. DedupPlans must give pointer-equal roots the same group and
// fingerprint, number groups in order of first appearance, and agree with
// hashing every arm's plan on its own.
func TestDedupSharedRoots(t *testing.T) {
	e := buildIMDbEngine(t)
	q, err := e.AnalyzeSQL("SELECT COUNT(*) FROM title t, cast_info ci, movie_info mi WHERE t.id = ci.movie_id AND t.id = mi.movie_id AND t.kind_id = 3 AND t.votes > 1000")
	if err != nil {
		t.Fatal(err)
	}
	arms := DefaultArms()
	hints := make([]planner.Hints, len(arms))
	for i, a := range arms {
		hints[i] = a.Hints
	}
	plans, _, err := e.Opt.PlanArms(context.Background(), q, hints)
	if err != nil {
		t.Fatal(err)
	}
	armGroup, groups := DedupPlans(plans)
	roots := map[*planner.Node]int{}
	groupFP := make([]uint64, groups) // of each group's first arm
	next := 0
	for i, p := range plans {
		if g, seen := roots[p]; seen && g != armGroup[i] {
			t.Fatalf("arm %d shares its root with an arm of group %d but is in group %d", i, g, armGroup[i])
		}
		roots[p] = armGroup[i]
		switch {
		case armGroup[i] == next:
			groupFP[next] = planFingerprint(p)
			next++
		case armGroup[i] > next:
			t.Fatalf("armGroup %v: group %d appears before group %d", armGroup, armGroup[i], next)
		}
		if fp := planFingerprint(p); fp != groupFP[armGroup[i]] {
			t.Fatalf("arm %d: group fingerprint %x, plan hashes to %x", i, groupFP[armGroup[i]], fp)
		}
	}
	if next != len(groupFP) || len(roots) >= len(plans) || len(groupFP) > len(roots) {
		t.Fatalf("%d groups, %d fingerprints, %d distinct roots over %d arms", next, len(groupFP), len(roots), len(plans))
	}
	for g := range groupFP {
		for h := 0; h < g; h++ {
			if groupFP[g] == groupFP[h] {
				t.Fatalf("groups %d and %d share fingerprint %x", h, g, groupFP[g])
			}
		}
	}
}
