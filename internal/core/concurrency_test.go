package core

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bao/internal/obs"
	"bao/internal/workload"
)

// TestSelectDuringInlineRetrain: library mode retrains on the observing
// goroutine while another goroutine keeps selecting. Before retrains
// became fit-and-swap the inline path fitted the live model in place, and
// this test failed under -race with TCNNModel.Fit (write) against
// TCNNModel.postprocess (read, via SelectCtx's off-lock predict).
func TestSelectDuringInlineRetrain(t *testing.T) {
	cfg := FastConfig()
	cfg.RetrainEvery = 20
	cfg.Train.MaxEpochs = 5
	cfg.Observer = obs.Disabled()
	b := New(buildIMDbEngine(t), cfg)
	stream := workload.IMDb(workload.Config{Scale: 0.12, Queries: 80, Seed: 42}).Queries

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !done.Load(); i++ {
			if _, err := b.Select(stream[i%len(stream)].SQL); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for _, q := range stream {
		if _, _, err := b.Run(q.SQL); err != nil {
			t.Errorf("%s: %v", q.Template, err)
			break
		}
	}
	done.Store(true)
	wg.Wait()
	if b.TrainCount() < 3 {
		t.Fatalf("%d retrains over %d queries: the stream never retrained beside the selector", b.TrainCount(), len(stream))
	}
}

// TestSelectDoesNotTakeBaoLock: with b.mu held for writing — a trainer
// drawing its sample, an observation being admitted — every reader of the
// published state still returns. This is what lets a trainer never block
// a selection.
func TestSelectDoesNotTakeBaoLock(t *testing.T) {
	b := trainedBao(t, FastConfig())
	sql := workload.IMDb(workload.Config{Scale: 0.12, Queries: 1, Seed: 42}).Queries[0].SQL

	b.mu.Lock()
	returned := make(chan error, 1)
	go func() {
		if _, err := b.Select(sql); err != nil {
			returned <- err
			return
		}
		if _, _, err := b.Advise(sql); err != nil {
			returned <- err
			return
		}
		_, _, _, _ = b.Trained(), b.TrainCount(), b.ModelVersion(), b.ExperienceSize()
		returned <- b.SaveModel(io.Discard)
	}()
	var err error
	select {
	case err = <-returned:
	case <-time.After(10 * time.Second):
		err = errBlocked
	}
	b.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

var errBlocked = errors.New("a reader of the published state waited on b.mu")

// TestConcurrentRunCtxSharesOneLane: RunCtx needs no lock from its callers.
// The engine bills each query the delta of shared cumulative counters, so
// two interleaved executions would each be billed the other's work (and
// race on the executor); on the one execution lane every concurrent run of
// a plan reports the work a lone run of it does — its pages split between
// hits and misses by whatever the pool then held, but never more or fewer.
func TestConcurrentRunCtxSharesOneLane(t *testing.T) {
	const goroutines, runs = 4, 4
	cfg := FastConfig()
	cfg.Arms = TopArms(1) // one arm: every run executes the same plan
	cfg.RetrainEvery = 1 << 30
	cfg.Observer = obs.Disabled()
	b := New(buildIMDbEngine(t), cfg)
	lone, _, err := b.Run(censorTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	want := lone.Counters
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				res, _, err := b.Run(censorTestSQL)
				if err != nil {
					t.Error(err)
					return
				}
				c := res.Counters
				if c.CPUOps != want.CPUOps || c.RowsOut != want.RowsOut ||
					c.PageHits+c.PageMisses != want.PageHits+want.PageMisses {
					t.Errorf("concurrent run billed %+v, a lone run %+v", c, want)
				}
			}
		}()
	}
	wg.Wait()
	if n := b.ExperienceSize(); n != 1+goroutines*runs {
		t.Fatalf("window = %d, want %d", n, 1+goroutines*runs)
	}
}

// TestConcurrentBanditStateAddsUp is the model-based check: selectors,
// observers, both retrain entry points, an adviser and a checkpoint
// restorer run against one optimizer, and afterwards everything must add
// up to what a single-threaded reference of the same calls would hold —
// window = min(admitted, cap), TrainCount = accepted retrains,
// ModelVersion = retrains + restores. While it runs, no reader sees the
// version go backwards, and every selection's predictions are those of a
// model that was published at some point during that selection.
func TestConcurrentBanditStateAddsUp(t *testing.T) {
	const (
		selectors, selects   = 2, 40
		observers, observes  = 2, 40
		retrains, restores   = 5, 4
		windowCap, prefilled = 64, 24
	)
	cfg := FastConfig()
	cfg.Arms = TopArms(6)
	cfg.ArmWarmup = 0 // a restore then leaves TrainCount alone
	cfg.WindowSize = windowCap
	cfg.RetrainEvery = 1 << 30 // every retrain below is an explicit call
	cfg.Train.MaxEpochs = 2
	cfg.PlanCache = true
	cfg.Observer = obs.Disabled()
	b := New(buildIMDbEngine(t), cfg)
	sqls := cachedWorkload()

	for i := 0; i < prefilled; i++ {
		sel, err := b.Select(sqls[i%len(sqls)])
		if err != nil {
			t.Fatal(err)
		}
		b.ObserveLatency(sel.Ticket(), 0.01+0.001*float64(i))
	}
	b.Retrain()
	var checkpoint bytes.Buffer
	if err := b.SaveModel(&checkpoint); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var asyncAccepted, attributed atomic.Int64
	spawn := func(n int, fn func(g int)) {
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				fn(g)
			}(g)
		}
	}
	// selectOnce selects between two loads of the published state and
	// checks the predictions against the state(s) the selection can have
	// loaded.
	selectOnce := func(sql string, lastVersion *uint64) *Selection {
		before := b.state.Load()
		sel, err := b.Select(sql)
		after := b.state.Load()
		if err != nil {
			t.Error(err)
			return nil
		}
		if before.version < *lastVersion || after.version < before.version {
			t.Errorf("model version went backwards: %d, then %d, then %d", *lastVersion, before.version, after.version)
		}
		*lastVersion = after.version
		if !sel.UsedModel {
			t.Errorf("selection at version %d did not use the model", before.version)
			return sel
		}
		if after.version-before.version > 1 {
			return sel // a state published and superseded in between may have served it
		}
		if !reflect.DeepEqual(sel.Preds, before.model.Predict(sel.Trees)) &&
			!reflect.DeepEqual(sel.Preds, after.model.Predict(sel.Trees)) {
			t.Errorf("predictions match neither model published during the selection (versions %d..%d)", before.version, after.version)
		}
		attributed.Add(1)
		return sel
	}
	spawn(selectors, func(g int) {
		var last uint64
		for i := 0; i < selects; i++ {
			selectOnce(sqls[(g+i)%len(sqls)], &last)
		}
	})
	spawn(observers, func(g int) {
		var last uint64
		for i := 0; i < observes; i++ {
			if sel := selectOnce(sqls[(g+i)%len(sqls)], &last); sel != nil {
				b.ObserveLatency(sel.Ticket(), 0.02+0.001*float64(i))
			}
		}
	})
	spawn(1, func(int) {
		for i := 0; i < retrains; i++ {
			b.Retrain()
		}
	})
	spawn(1, func(int) {
		for i := 0; i < retrains; i++ {
			if b.RetrainAsyncFor(obs.Cause{}) {
				asyncAccepted.Add(1)
			}
		}
	})
	spawn(1, func(int) {
		for i := 0; i < restores; i++ {
			if err := b.LoadModel(bytes.NewReader(checkpoint.Bytes())); err != nil {
				t.Error(err)
			}
		}
	})
	spawn(1, func(int) {
		for i := 0; i < selects; i++ {
			if _, _, err := b.Advise(sqls[i%len(sqls)]); err != nil {
				t.Error(err)
			}
			if ev := b.LastTrain(); ev.Samples == 0 {
				t.Errorf("last train event %+v read during retrains records no samples", ev)
			}
		}
	})
	wg.Wait()

	admitted := prefilled + observers*observes
	wantWindow := admitted
	if wantWindow > windowCap {
		wantWindow = windowCap
	}
	if got := b.ExperienceSize(); got != wantWindow || len(b.Experiences()) != wantWindow {
		t.Errorf("window = %d (%d experiences), want %d", got, len(b.Experiences()), wantWindow)
	}
	if b.queriesSeen != admitted {
		t.Errorf("queries seen = %d, want %d", b.queriesSeen, admitted)
	}
	// The gate is off and the window never empties, so every retrain call
	// is accepted.
	if got := int(asyncAccepted.Load()); got != retrains {
		t.Errorf("RetrainAsyncFor accepted %d of %d", got, retrains)
	}
	wantTrained := 1 + 2*retrains
	if got := b.TrainCount(); got != wantTrained || b.fits != wantTrained {
		t.Errorf("TrainCount = %d, %d Fit calls; want %d each", got, b.fits, wantTrained)
	}
	if ev := b.LastTrain(); ev.Samples == 0 {
		t.Errorf("last train event %+v records no samples", ev)
	}
	if got, want := b.ModelVersion(), uint64(wantTrained+restores); got != want {
		t.Errorf("ModelVersion = %d, want %d (retrains + restores)", got, want)
	}
	if b.Model != b.state.Load().model {
		t.Error("the exported Model field is not the published model")
	}
	if attributed.Load() == 0 {
		t.Error("no selection could be attributed to a published model")
	}
}

// TestConcurrentMissesMatchSequential: each selection forwards its plans
// on its own goroutine, through a pooled replica of the shared model.
// Plan-cache misses on distinct texts sent from several goroutines at
// once must get predictions bit-identical to the same selections made
// one at a time: how calls interleave never reaches the arithmetic.
func TestConcurrentMissesMatchSequential(t *testing.T) {
	const goroutines = 4
	cfg := FastConfig()
	cfg.Observer = obs.Disabled()
	b := trainedBao(t, cfg)
	queries := workload.IMDb(workload.Config{Scale: 0.12, Queries: 24, Seed: 7}).Queries
	want := make([][]float64, len(queries))
	for i, q := range queries {
		sel, err := b.Select(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		if !sel.UsedModel {
			t.Fatalf("%s: sequential selection did not use the model", q.Template)
		}
		want[i] = sel.Preds
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queries {
				i := (k + g*len(queries)/goroutines) % len(queries) // each goroutine starts elsewhere
				sel, err := b.Select(queries[i].SQL)
				if err != nil {
					t.Error(err)
					return
				}
				if len(sel.Preds) != len(want[i]) {
					t.Errorf("%s: %d predictions, sequential pass had %d", queries[i].Template, len(sel.Preds), len(want[i]))
					return
				}
				for a, p := range sel.Preds {
					if math.Float64bits(p) != math.Float64bits(want[i][a]) {
						t.Errorf("%s arm %d: concurrent pred %x != sequential %x",
							queries[i].Template, a, math.Float64bits(p), math.Float64bits(want[i][a]))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
