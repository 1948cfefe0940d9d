package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"bao/internal/model"
	"bao/internal/nn"
	"bao/internal/obs"
	"bao/internal/planner"
	"bao/internal/workload"
)

// retrainInPlace is the inline Retrain body as it stood before retrains
// became fit-and-swap, kept as the oracle: it fits the LIVE model under
// the write lock (each Fit stepping that one model's seed) and republishes
// it. Only safe single-threaded, which is why it is no longer product code.
func retrainInPlace(b *Bao) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.trainingSampleLocked()
	// The inline path has no hot-swap to gate, so the holdout (if the
	// validation config carved one out) folds back into the training set
	// rather than going unused.
	trees := append(s.trees, s.valTrees...)
	secs := append(s.secs, s.valSecs...)
	if len(trees) == 0 {
		return
	}
	start := time.Now()
	epochs := b.Model.Fit(trees, secs)
	extra, _ := enforceCriticalOn(b.Model, trees, secs, s.crit)
	epochs += extra
	wall := time.Since(start).Seconds()
	b.finishRetrainLocked(b.Model, len(trees), fitResult{epochs: epochs, wall: wall})
	b.observer.Emit(obs.Event{Kind: obs.EventSwapAccepted,
		Detail: fmt.Sprintf("samples=%d epochs=%d (inline)", len(trees), epochs),
		Secs:   wall})
}

// TestRetrainMatchesInPlaceReference drives two optimizers over the same
// stream, one retraining through Retrain and one through the in-place
// oracle, and requires the same model after every retrain and the same arm
// for every query: a fresh model seeded Cfg.Seed + (Fit calls so far) is
// bit-for-bit the model a single instance refitted in place becomes. One
// query is critical, so enforcement refits advance the seed too.
func TestRetrainMatchesInPlaceReference(t *testing.T) {
	const crit = "SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id AND t.kind_id = 7 AND t.votes > 200000"
	stream := workload.IMDb(workload.Config{Scale: 0.12, Queries: 120, Seed: 42}).Queries
	for _, tc := range []struct {
		name     string
		newModel func(seed int64) model.Model
	}{
		{"tcnn", nil},
		{"forest", func(seed int64) model.Model { return model.NewForest(seed) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var due [2]bool
			var opts [2]*Bao
			for i := range opts {
				cfg := FastConfig()
				cfg.Arms = TopArms(6)
				cfg.RetrainEvery = 20
				cfg.Train.MaxEpochs = 5
				cfg.NewModel = tc.newModel
				cfg.Observer = obs.Disabled()
				b := New(buildIMDbEngine(t), cfg)
				b.MarkCritical(crit)
				if _, err := b.ExploreCritical(); err != nil {
					t.Fatal(err)
				}
				i := i
				b.SetRetrainHook(func(obs.Cause) { due[i] = true })
				opts[i] = b
			}
			got, ref := opts[0], opts[1]
			retrains := 0
			for qi, q := range stream {
				var arms [2]int
				for i, b := range opts {
					_, sel, err := b.Run(q.SQL)
					if err != nil {
						t.Fatalf("query %d: %v", qi, err)
					}
					arms[i] = sel.ArmID
				}
				if arms[0] != arms[1] {
					t.Fatalf("query %d: arm %d, the in-place reference chose %d", qi, arms[0], arms[1])
				}
				if due[0] != due[1] {
					t.Fatalf("query %d: retrain due %v, reference %v", qi, due[0], due[1])
				}
				if !due[0] {
					continue
				}
				due = [2]bool{}
				got.Retrain()
				retrainInPlace(ref)
				retrains++
				if tc.newModel == nil {
					var a, b bytes.Buffer
					if err := got.SaveModel(&a); err != nil {
						t.Fatal(err)
					}
					if err := ref.SaveModel(&b); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(a.Bytes(), b.Bytes()) {
						t.Fatalf("retrain %d (query %d): saved model differs from the in-place reference", retrains, qi)
					}
				}
				probe := ref.Experiences()
				trees := make([]*nn.Tree, len(probe))
				for i, e := range probe {
					trees[i] = e.Tree
				}
				if a, b := got.Model.Predict(trees), ref.Model.Predict(trees); !reflect.DeepEqual(a, b) {
					t.Fatalf("retrain %d (query %d): predictions differ from the in-place reference", retrains, qi)
				}
			}
			if retrains < 4 {
				t.Fatalf("only %d retrains: the stream does not exercise the seed sequence", retrains)
			}
			if tc.newModel == nil && got.fits <= retrains {
				t.Fatalf("%d Fit calls over %d retrains: no enforcement refit ran, so the test cannot see them miscounted", got.fits, retrains)
			}
		})
	}
}

// pickArmTwoPass is the argmin as it stood when the cost-sanity filter
// first built a slice of the sane arms and fell back to every candidate
// when it came out empty — the oracle for pickArm's one pass.
func pickArmTwoPass(plans []*planner.Node, preds []float64, candidates []int) int {
	minCost := plans[candidates[0]].EstCost
	for _, i := range candidates {
		if plans[i].EstCost < minCost {
			minCost = plans[i].EstCost
		}
	}
	sane := candidates[:0:0]
	for _, i := range candidates {
		if plans[i].EstCost <= minCost*100 {
			sane = append(sane, i)
		}
	}
	if len(sane) > 0 {
		candidates = sane
	}
	best := candidates[0]
	for _, i := range candidates[1:] {
		if preds[i] < preds[best] ||
			(preds[i] == preds[best] && plans[i].EstCost < plans[best].EstCost) {
			best = i
		}
	}
	return best
}

// TestPickArmMatchesTwoPassReference draws candidate sets, costs and
// predictions — ties, costs around the 100× line, negative, infinite and
// NaN values — and requires pickArm to choose the oracle's arm every time.
func TestPickArmMatchesTwoPassReference(t *testing.T) {
	costs := []float64{0, 1, 1, 2, 99, 100, 101, 250, -1, -300, math.Inf(1), math.Inf(-1), math.NaN()}
	preds := []float64{0.1, 0.1, 0.2, 0.5, math.MaxFloat64, math.Inf(1), math.NaN()}
	rng := rand.New(rand.NewSource(3))
	b := &Bao{observer: obs.Disabled()}
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(8)
		plans, p := make([]*planner.Node, n), make([]float64, n)
		for i := range plans {
			plans[i] = &planner.Node{EstCost: costs[rng.Intn(len(costs))]}
			p[i] = preds[rng.Intn(len(preds))]
		}
		cands := rng.Perm(n)[:1+rng.Intn(n)]
		r := &selectReq{b: b, sel: &Selection{Plans: plans, Preds: p}, st: &banditState{arms: cands}}
		r.pickArm()
		if want := pickArmTwoPass(plans, p, cands); r.sel.ArmID != want {
			t.Fatalf("trial %d: candidates %v, costs/preds %v/%v: arm %d, the two-pass reference chose %d",
				trial, cands, costsOf(plans), p, r.sel.ArmID, want)
		}
	}
}

func costsOf(plans []*planner.Node) []float64 {
	c := make([]float64, len(plans))
	for i, p := range plans {
		c[i] = p.EstCost
	}
	return c
}

// The residency check as it stood when a cache entry carried its own
// residency signature beside the tensors: residencyFromTrees read the
// signature back out of the tensors at store time (nil for a
// cache-oblivious featurizer), and a hit compared the live residency of
// the plans' scans against it. Kept as the oracle for residencyMatches,
// which reads the tensors directly.
func residencyFromTrees(trees []*nn.Tree) []float64 {
	var sig []float64
	for _, t := range trees {
		for n := 0; n < t.N; n++ {
			row := t.Feat[n*t.D : (n+1)*t.D]
			if rowIsScan(row) {
				sig = append(sig, row[int(planner.NumOps)+3])
			}
		}
	}
	return sig
}

func rowIsScan(row []float64) bool {
	return row[int(planner.OpSeqScan)] == 1 ||
		row[int(planner.OpIndexScan)] == 1 ||
		row[int(planner.OpIndexOnlyScan)] == 1
}

func floatsEqual(a, b []float64) bool {
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

func (f *Featurizer) residencySigMatches(uniq []*planner.Node, sig []float64) bool {
	if f.CacheFrac == nil {
		return len(sig) == 0
	}
	i := 0
	for _, p := range uniq {
		i = f.matchSigScans(p, sig, i)
	}
	return i == len(sig)
}

func (f *Featurizer) matchSigScans(n *planner.Node, sig []float64, i int) int {
	if n == nil || i < 0 {
		return i
	}
	if n.IsScan() {
		if i == len(sig) || f.CacheFrac(n.Table, n.Op == planner.OpIndexOnlyScan) != sig[i] {
			return -1
		}
		i++
	}
	return f.matchSigScans(n.Right, sig, f.matchSigScans(n.Left, sig, i))
}

// TestResidencyMatchesReference checks residencyMatches against the
// signature oracle over every query's distinct plans: tensors built
// cache-aware and cache-oblivious, checked under the residency they were
// built with, under one where a single table or access path moved, and
// with no residency at all; and cache-aware tensors where one row's
// residency slot was bumped — a scan's row must mismatch, a join's or a
// null padding row's must not.
func TestResidencyMatchesReference(t *testing.T) {
	cfg := FastConfig()
	cfg.Observer = obs.Disabled()
	b := New(buildIMDbEngine(t), cfg)
	frac := map[string]float64{}
	aware := func(table string, indexOnly bool) float64 {
		k := fmt.Sprint(table, indexOnly)
		if _, ok := frac[k]; !ok {
			frac[k] = float64(len(frac)+1) / 64
		}
		return frac[k]
	}
	b.Feat.CacheFrac = aware
	check := func(tmpl string, built, live *Featurizer, uniq []*planner.Node, trees []*nn.Tree, what string) {
		t.Helper()
		var sig []float64
		if built.CacheFrac != nil {
			sig = residencyFromTrees(trees)
		}
		got := true
		for g, p := range uniq {
			got = got && live.residencyMatches(p, trees[g])
		}
		if want := live.residencySigMatches(uniq, sig); got != want {
			t.Fatalf("%s, %s: residencyMatches = %v, the signature oracle says %v", tmpl, what, got, want)
		}
	}
	// The planner never hangs a lone child on the right; Vectorize still
	// moves one to the left, so the walk must too.
	scan := func(op planner.Op, table string) *planner.Node { return &planner.Node{Op: op, Table: table} }
	sets := map[string][]*planner.Node{"right-only children": {{Op: planner.OpSort, Right: &planner.Node{
		Op: planner.OpHashJoin, Left: scan(planner.OpSeqScan, "title"),
		Right: &planner.Node{Op: planner.OpAggregate, Right: scan(planner.OpIndexOnlyScan, "cast_info")}}}}}
	for _, q := range workload.IMDb(workload.Config{Scale: 0.12, Queries: 40, Seed: 42}).Queries {
		sel, err := b.Select(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range sel.Plans {
			if !slices.Contains(sets[q.SQL], p) {
				sets[q.SQL] = append(sets[q.SQL], p)
			}
		}
	}
	for name, uniq := range sets {
		for _, built := range []*Featurizer{{CacheFrac: aware}, {}} {
			trees := make([]*nn.Tree, len(uniq))
			for g, p := range uniq {
				trees[g] = built.Vectorize(p)
			}
			check(name, built, built, uniq, trees, "unchanged")
			check(name, built, &Featurizer{}, uniq, trees, "cache-oblivious")
			check(name, built, &Featurizer{CacheFrac: aware}, uniq, trees, "cache-aware")
			for k := range frac {
				moved := &Featurizer{CacheFrac: func(table string, indexOnly bool) float64 {
					if fmt.Sprint(table, indexOnly) == k {
						return aware(table, indexOnly) + 1
					}
					return aware(table, indexOnly)
				}}
				check(name, built, moved, uniq, trees, k+" moved")
			}
			if built.CacheFrac == nil {
				continue // the oracle never read an oblivious tensor
			}
			for g, tr := range trees {
				for n := 0; n < tr.N; n++ {
					bumped := slices.Clone(trees)
					c := *tr
					c.Feat = slices.Clone(tr.Feat)
					c.Feat[n*tr.D+residencyIndex] += 0.5
					bumped[g] = &c
					check(name, built, built, uniq, bumped, fmt.Sprintf("plan %d row %d bumped", g, n))
				}
			}
		}
	}
}
