package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"bao/internal/cloud"
	"bao/internal/engine"
	"bao/internal/executor"
	"bao/internal/obs"
	"bao/internal/workload"
)

const censorTestSQL = "SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id AND t.production_year > 1990"

// TestWindowSizeClampedToRetrainFloor is the regression test for the
// config-validation gap: 0 < WindowSize < minRetrainWindow used to pass
// through New untouched, and since record() only retrains when
// len(exp) >= minRetrainWindow, such a Bao silently never trained.
func TestWindowSizeClampedToRetrainFloor(t *testing.T) {
	e := buildIMDbEngine(t)
	cfg := FastConfig()
	cfg.WindowSize = 5 // below the floor; must be clamped, not honored
	cfg.RetrainEvery = minRetrainWindow
	cfg.Arms = TopArms(2)
	cfg.Observer = obs.NewObserver(obs.NewRegistry(), nil)
	b := New(e, cfg)
	if b.Cfg.WindowSize != minRetrainWindow {
		t.Fatalf("WindowSize = %d, want clamped to %d", b.Cfg.WindowSize, minRetrainWindow)
	}
	for i := 0; i < minRetrainWindow+2; i++ {
		if _, _, err := b.Run("SELECT COUNT(*) FROM title t WHERE t.kind_id = 1"); err != nil {
			t.Fatal(err)
		}
	}
	if !b.Trained() {
		t.Fatalf("never trained with tiny configured window (%d experiences held)",
			b.ExperienceSize())
	}
	// Zero/negative still means "use the default", not the floor.
	cfg2 := FastConfig()
	cfg2.WindowSize = 0
	if b2 := New(buildIMDbEngine(t), cfg2); b2.Cfg.WindowSize < 100 {
		t.Fatalf("zero WindowSize resolved to %d, want the large default", b2.Cfg.WindowSize)
	}
}

func TestObserveTimeoutRecordsCensoredExperience(t *testing.T) {
	e := buildIMDbEngine(t)
	cfg := FastConfig()
	cfg.Arms = TopArms(3)
	cfg.RetrainEvery = 1000
	cfg.Observer = obs.NewObserver(obs.NewRegistry(), nil)
	b := New(e, cfg)
	sel, err := b.Select(censorTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 0.25
	b.ObserveTimeout(sel, budget)
	exps := b.Experiences()
	if len(exps) != 1 {
		t.Fatalf("window holds %d experiences, want 1", len(exps))
	}
	got := exps[0]
	if !got.Censored || got.Secs != budget || got.ArmID != sel.ArmID || got.Tree == nil {
		t.Fatalf("censored experience = %+v, want Censored at Secs=%v for arm %d",
			got, budget, sel.ArmID)
	}
	snap := b.Stats()
	if n := snap.Counter("bao_query_timeouts_total"); n != 1 {
		t.Fatalf("bao_query_timeouts_total = %v, want 1", n)
	}
}

func TestAbandonRecordsNothing(t *testing.T) {
	e := buildIMDbEngine(t)
	cfg := FastConfig()
	cfg.Arms = TopArms(3)
	cfg.Observer = obs.NewObserver(obs.NewRegistry(), nil)
	b := New(e, cfg)
	sel, err := b.Select(censorTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	b.Abandon(sel, "client went away")
	b.Abandon(nil, "no selection to speak of") // must be nil-safe
	if n := b.ExperienceSize(); n != 0 {
		t.Fatalf("abandon leaked %d experiences into the window", n)
	}
	if n := b.Stats().Counter("bao_queries_total"); n != 0 {
		t.Fatalf("abandon counted as a completed query (%v)", n)
	}
}

func TestSelectCtxCancelled(t *testing.T) {
	e := buildIMDbEngine(t)
	cfg := FastConfig()
	cfg.Arms = TopArms(3)
	cfg.Observer = obs.NewObserver(obs.NewRegistry(), nil)
	b := New(e, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.SelectCtx(ctx, censorTestSQL); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// stalledBao builds a fresh engine+Bao with the given worker count and
// QueryTimeout whose executions stall at a fixed page ordinal until their
// context dies.
func stalledBao(t *testing.T, workers int, timeout time.Duration) *Bao {
	t.Helper()
	e := engine.New(engine.GradePostgreSQL, 3000)
	inst := workload.IMDb(workload.Config{Scale: 0.12, Queries: 1, Seed: 42})
	if err := inst.Setup(e); err != nil {
		t.Fatal(err)
	}
	cfg := FastConfig()
	cfg.Arms = TopArms(3)
	cfg.Workers = workers
	cfg.RetrainEvery = 1000
	cfg.QueryTimeout = timeout
	cfg.Observer = obs.NewObserver(obs.NewRegistry(), nil)
	b := New(e, cfg)
	e.Exec.Fault = &executor.Fault{AfterPages: 11, Stall: true}
	return b
}

// runCensored runs one stalled query past a 10ms QueryTimeout. It returns
// the abort counters and the recorded experience.
func runCensored(t *testing.T, workers int) (executor.Counters, Experience) {
	t.Helper()
	b := stalledBao(t, workers, 10*time.Millisecond)
	_, sel, err := b.Run(censorTestSQL)
	if !errors.Is(err, executor.ErrDeadlineExceeded) {
		t.Fatalf("workers=%d: err = %v, want ErrDeadlineExceeded", workers, err)
	}
	if sel == nil {
		t.Fatalf("workers=%d: no selection returned", workers)
	}
	var de *executor.DeadlineExceededError
	if !errors.As(err, &de) {
		t.Fatalf("workers=%d: err = %T", workers, err)
	}
	exps := b.Experiences()
	if len(exps) != 1 || !exps[0].Censored {
		t.Fatalf("workers=%d: window = %+v, want one censored experience", workers, exps)
	}
	return de.Counters, exps[0]
}

// TestCensoredTimeoutDeterministicAcrossWorkers pins the acceptance
// criterion: a fault-injected stall at the same simulated-clock point
// yields byte-identical abort counters and the same censored experience —
// at exactly the configured deadline's budget — regardless of worker count
// (and, under -race, timing).
func TestCensoredTimeoutDeterministicAcrossWorkers(t *testing.T) {
	budget := cloud.DeadlineBudgetSecs(10 * time.Millisecond)
	baseC, baseE := runCensored(t, 1)
	if got := baseC.PageHits + baseC.PageMisses; got != 10 {
		t.Fatalf("abort pages = %d, want 10 (stall at 11 precedes the charge)", got)
	}
	if baseE.Secs != budget {
		t.Fatalf("censored Secs = %v, want the budget %v", baseE.Secs, budget)
	}
	for _, w := range []int{2, 4} {
		c, exp := runCensored(t, w)
		if c != baseC {
			t.Fatalf("workers=%d: abort counters %+v != sequential baseline %+v", w, c, baseC)
		}
		if exp.ArmID != baseE.ArmID || !exp.Censored || exp.Secs != budget {
			t.Fatalf("workers=%d: experience %+v != baseline %+v", w, exp, baseE)
		}
	}
}

// cancelAtStall is a caller context that cancels itself the first time
// anything waits on it — here, exactly when execution reaches the injected
// stall, since with no QueryTimeout the executor's stall is the only
// caller of Done.
type cancelAtStall struct {
	context.Context
	cancel context.CancelFunc
}

func (c cancelAtStall) Done() <-chan struct{} {
	c.cancel()
	return c.Context.Done()
}

// TestRunCtxCancelMidExecutionAbandons: a caller that goes away while its
// query executes gets nothing recorded — no experience, no completed or
// censored query — and one abandonment.
func TestRunCtxCancelMidExecutionAbandons(t *testing.T) {
	b := stalledBao(t, 1, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, sel, err := b.RunCtx(cancelAtStall{ctx, cancel}, censorTestSQL)
	if res != nil || sel == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx = (%v, %v, %v), want no result, the selection and context.Canceled", res, sel, err)
	}
	var de *executor.DeadlineExceededError
	if errors.As(err, &de) {
		t.Fatal("an abandoned query returned the censored outcome's error")
	}
	snap := b.Stats()
	if n := b.ExperienceSize(); n != 0 {
		t.Fatalf("abandoned query recorded %d experiences", n)
	}
	for name, want := range map[string]float64{
		"bao_server_abandoned_total": 1,
		"bao_queries_total":          0,
		"bao_query_timeouts_total":   0,
	} {
		if got := snap.Counter(name); got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
}
