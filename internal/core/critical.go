package core

import (
	"context"
	"fmt"
	"sort"

	"bao/internal/executor"
	"bao/internal/model"
	"bao/internal/nn"
)

// MarkCritical registers a query for triggered exploration.
func (b *Bao) MarkCritical(sql string) {
	b.mu.Lock()
	b.markedCrit[sql] = sql
	b.mu.Unlock()
}

// CriticalKeys returns the keys of queries with stored critical
// exploration sets, sorted.
func (b *Bao) CriticalKeys() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return sortedKeys(b.critical)
}

// sortedKeys returns crit's keys in sorted order: whatever is built from
// the critical sets — a training sample, an enforcement refit set — is
// built in it, so a retrain is reproducible (map order is not).
func sortedKeys(crit map[string][]Experience) []string {
	keys := make([]string, 0, len(crit))
	for k := range crit {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CriticalSets returns a copy of the critical-query exploration registry
// keyed by query identity — the snapshot-side counterpart of
// RestoreCritical. The per-key slices are shared (they are immutable
// once stored).
func (b *Bao) CriticalSets() map[string][]Experience {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.criticalSetsLocked()
}

func (b *Bao) criticalSetsLocked() map[string][]Experience {
	out := make(map[string][]Experience, len(b.critical))
	for k, v := range b.critical {
		out[k] = v
	}
	return out
}

// RestoreCritical restores one critical query's exploration set (startup
// replay counterpart of ExploreCritical's bookkeeping).
func (b *Bao) RestoreCritical(key string, exps []Experience) {
	b.mu.Lock()
	b.critical[key] = exps
	b.markedCrit[key] = key
	b.mu.Unlock()
}

// ExploreCritical executes every marked query under every arm, storing the
// flagged experiences that Retrain will always honor. It returns the total
// counters spent, so callers can bill the exploration. The whole
// exploration holds the execution lane, so no RunCtx execution interleaves
// with it.
func (b *Bao) ExploreCritical() (executor.Counters, error) {
	return b.ExploreCriticalCtx(context.Background())
}

// ExploreCriticalCtx is ExploreCritical under a context: exploration
// checks cancellation between arms and inside each arm's execution, and an
// aborted exploration stores nothing for the query being explored (a
// critical set is only useful complete — a partial set would bias the
// enforcement loop toward whichever arms happened to run). Queries are
// explored in sorted key order, so buffer-pool residency — and with it the
// cache-aware features of the recorded experiences — repeats run to run.
func (b *Bao) ExploreCriticalCtx(ctx context.Context) (executor.Counters, error) {
	b.lane.Lock()
	defer b.lane.Unlock()
	b.mu.RLock()
	marked := make(map[string]string, len(b.markedCrit))
	keys := make([]string, 0, len(b.markedCrit))
	for k, v := range b.markedCrit {
		marked[k] = v
		keys = append(keys, k)
	}
	b.mu.RUnlock()
	sort.Strings(keys)
	var total executor.Counters
	for _, key := range keys {
		q, err := b.Eng.AnalyzeSQL(marked[key])
		if err != nil {
			return total, err
		}
		plans, _, err := b.Eng.Opt.PlanArms(ctx, q, b.hints)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return total, fmt.Errorf("core: exploration cancelled: %w", cerr)
			}
			return total, err
		}
		exps := make([]Experience, 0, len(plans))
		for i, n := range plans {
			if err := ctx.Err(); err != nil {
				return total, fmt.Errorf("core: exploration cancelled: %w", err)
			}
			tree := b.Feat.Vectorize(n)
			res, err := b.Eng.ExecuteCtx(ctx, n)
			if err != nil {
				return total, err
			}
			total.Add(res.Counters)
			exps = append(exps, Experience{
				Tree: tree, Secs: b.Cfg.Metric.Value(res.Counters),
				ArmID: b.Cfg.Arms[i].ID, Key: key, Critical: true,
			})
		}
		b.mu.Lock()
		b.critical[key] = exps
		hook := b.critHook
		b.mu.Unlock()
		if hook != nil {
			hook(key, exps)
		}
	}
	return total, nil
}

// enforceCriticalOn refits m with exponentially growing weight on
// mispredicted critical experiences until the model selects the truly
// fastest arm for every critical query (bounded rounds). Returns the extra
// epochs used and how many refits (Fit calls) that took.
func enforceCriticalOn(m model.Model, baseTrees []*nn.Tree, baseSecs []float64, crit map[string][]Experience) (extra, refits int) {
	if len(crit) == 0 {
		return 0, 0
	}
	weight := 1
	for refits < 5 {
		bad := mispredictedCriticalOn(m, crit)
		if len(bad) == 0 {
			break
		}
		weight *= 2
		trees := append([]*nn.Tree{}, baseTrees...)
		secs := append([]float64{}, baseSecs...)
		for _, key := range bad {
			for _, e := range crit[key] {
				for w := 0; w < weight; w++ {
					trees = append(trees, e.Tree)
					secs = append(secs, e.Secs)
				}
			}
		}
		extra += m.Fit(trees, secs)
		refits++
	}
	return extra, refits
}

// mispredictedCriticalOn returns the keys of critical queries for which
// m's chosen arm is materially slower than the observed-fastest arm.
// (Several arms often yield the same physical plan — and therefore the
// same prediction — so exact argmin agreement is too strict; what matters
// is that the selected plan performs like the best one.)
func mispredictedCriticalOn(m model.Model, crit map[string][]Experience) []string {
	var bad []string
	for _, key := range sortedKeys(crit) {
		exps := crit[key]
		if len(exps) < 2 {
			continue
		}
		trees := make([]*nn.Tree, len(exps))
		bestObs := 0
		for i, e := range exps {
			trees[i] = e.Tree
			if e.Secs < exps[bestObs].Secs {
				bestObs = i
			}
		}
		preds := m.Predict(trees)
		bestPred := 0
		for i, p := range preds {
			if p < preds[bestPred] {
				bestPred = i
			}
		}
		if exps[bestPred].Secs > 1.2*exps[bestObs].Secs+1e-3 {
			bad = append(bad, key)
		}
	}
	return bad
}
