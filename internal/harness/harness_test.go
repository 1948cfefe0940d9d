package harness

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"bao/internal/cloud"
	"bao/internal/core"
	"bao/internal/engine"
	"bao/internal/executor"
)

// tinyOpts keeps harness tests fast.
func tinyOpts(out *bytes.Buffer) Options {
	return Options{Scale: 0.1, Queries: 60, Seed: 42, Out: out}
}

func TestRunWorkloadBothSystems(t *testing.T) {
	var buf bytes.Buffer
	s := NewSession(tinyOpts(&buf))
	nat, err := s.Run("IMDb", cloud.N1_4, engine.GradePostgreSQL, SysNative)
	if err != nil {
		t.Fatal(err)
	}
	if len(nat.Records) != 60 || nat.TotalSeconds() <= 0 {
		t.Fatalf("native run: %d records, %fs", len(nat.Records), nat.TotalSeconds())
	}
	bao, err := s.Run("IMDb", cloud.N1_4, engine.GradePostgreSQL, SysBao)
	if err != nil {
		t.Fatal(err)
	}
	if bao.Bao == nil {
		t.Fatal("bao run missing optimizer handle")
	}
	if bao.TrainCount == 0 {
		t.Fatal("bao run never trained")
	}
	if bao.Bill.GPUSeconds <= 0 {
		t.Fatal("bao run billed no GPU time")
	}
	// Pinned: this run retrains once, and the bill charges that retrain's
	// simulated GPU time exactly once.
	if bao.TrainCount != 1 || bao.Bill.GPUSeconds != 1.2 {
		t.Fatalf("bao run: %d retrains, %v GPU seconds; want 1, 1.2", bao.TrainCount, bao.Bill.GPUSeconds)
	}
	// Session caching: a second request returns the same result.
	again, err := s.Run("IMDb", cloud.N1_4, engine.GradePostgreSQL, SysNative)
	if err != nil {
		t.Fatal(err)
	}
	if again != nat {
		t.Fatal("session did not cache the run")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := percentile(xs, 50); got != 2.5 {
		t.Fatalf("p50 = %v", got)
	}
	if got := percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Fatalf("p100 = %v", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Fatal("percentile mutated its input")
	}
}

func TestTable1AndFigure1Output(t *testing.T) {
	var buf bytes.Buffer
	s := NewSession(tinyOpts(&buf))
	if err := s.Table1(); err != nil {
		t.Fatal(err)
	}
	if err := s.Figure1(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"IMDb", "Stack", "Corp", "16b", "24b", "Default/NoLoop"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestArmTableDedupesAndIsComplete pins the arm table to core's plan
// identity and to a cold execution of each distinct plan.
func TestArmTableDedupesAndIsComplete(t *testing.T) {
	var buf bytes.Buffer
	s := NewSession(tinyOpts(&buf))
	eng, err := s.imdbEngine(cloud.N1_4)
	if err != nil {
		t.Fatal(err)
	}
	arms := s.BaoConfig().Arms
	tab, err := measureArms(eng, arms, "SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id AND t.kind_id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.plans) != len(arms) || len(tab.counters) != len(arms) {
		t.Fatalf("table has %d plans, %d counter sets for %d arms; want one entry per arm", len(tab.plans), len(tab.counters), len(arms))
	}
	// Every arm of a DedupPlans group reads one counter set, and core's
	// plan identity agrees with the plans' EXPLAIN text.
	armGroup, groups := core.DedupPlans(tab.plans)
	groupCounters := map[int]executor.Counters{}
	groupOfExplain := map[string]int{}
	for a, p := range tab.plans {
		g := armGroup[a]
		if c, ok := groupCounters[g]; ok && c != tab.counters[a] {
			t.Fatalf("arm %d reads %+v, its group %d reads %+v", a, tab.counters[a], g, c)
		}
		groupCounters[g] = tab.counters[a]
		if v := core.MetricLatency.Value(tab.counters[a]); v <= 0 {
			t.Fatalf("arm %d seconds = %v", a, v)
		}
		if prev, ok := groupOfExplain[p.Explain()]; ok && prev != g {
			t.Fatalf("arm %d: EXPLAIN-identical plans in groups %d and %d", a, prev, g)
		}
		groupOfExplain[p.Explain()] = g
	}
	if len(groupOfExplain) != groups {
		t.Fatalf("%d distinct EXPLAIN texts, %d plan groups", len(groupOfExplain), groups)
	}
	// Each group's counters are a lone cold execution of its
	// representative, the group's first arm.
	for a, g := range armGroup {
		if slices.Contains(armGroup[:a], g) {
			continue
		}
		eng.Pool.Clear()
		res, err := eng.Execute(tab.plans[a])
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters != groupCounters[g] {
			t.Fatalf("group %d: table counters %+v, cold execution %+v", g, groupCounters[g], res.Counters)
		}
	}
}

func TestFmtSecs(t *testing.T) {
	cases := map[float64]string{
		0.0012: "1.2ms",
		1.5:    "1.50s",
		200:    "3.3m",
	}
	for in, want := range cases {
		if got := fmtSecs(in); got != want {
			t.Fatalf("fmtSecs(%v) = %q, want %q", in, got, want)
		}
	}
}

// TestRunWorkloadQueryTimeoutCensors exercises the harness's simulated-
// clock deadline: queries whose execution exceeds the compressed budget
// clamp to it, flag Censored, and (under Bao) land in the window as
// censored experiences — deterministically, since nothing depends on wall
// time.
func TestRunWorkloadQueryTimeoutCensors(t *testing.T) {
	var buf bytes.Buffer
	opts := tinyOpts(&buf)
	opts.QueryTimeout = 100 * time.Millisecond // budget = 100ms/50 = 2ms simulated
	s := NewSession(opts)
	run, err := s.Run("IMDb", cloud.N1_4, engine.GradePostgreSQL, SysBao)
	if err != nil {
		t.Fatal(err)
	}
	budget := cloud.DeadlineBudgetSecs(opts.QueryTimeout)
	censored := 0
	for _, q := range run.Records {
		if q.ExecSecs > budget {
			t.Fatalf("query %d ran %.6fs past the %.6fs budget uncensored", q.Index, q.ExecSecs, budget)
		}
		if q.Censored {
			if q.ExecSecs != budget {
				t.Fatalf("censored query %d at %.6fs, want clamped to %.6fs", q.Index, q.ExecSecs, budget)
			}
			censored++
		}
	}
	if censored == 0 {
		t.Fatal("no query hit the deadline; budget too generous for this workload")
	}
	inWindow := 0
	for _, e := range run.Bao.Experiences() {
		if e.Censored {
			if e.Secs != budget {
				t.Fatalf("censored experience at %v, want %v", e.Secs, budget)
			}
			inWindow++
		}
	}
	if inWindow == 0 {
		t.Fatal("censored queries recorded no censored experiences")
	}
	// Determinism: the same configuration censors the same queries.
	again, err := NewSession(opts).Run("IMDb", cloud.N1_4, engine.GradePostgreSQL, SysBao)
	if err != nil {
		t.Fatal(err)
	}
	for i := range run.Records {
		if run.Records[i].Censored != again.Records[i].Censored {
			t.Fatalf("query %d censored=%v in run 1 but %v in run 2",
				i, run.Records[i].Censored, again.Records[i].Censored)
		}
	}
}
