package bao_test

// The TCNN hot path: training as sequential-vs-parallel pairs
// (data-parallel mini-batches), inference (one caller's goroutine), and
// Select (plan deduplication). Each training pair lands in
// BENCH_results.json with the cores its workers could use in the cores
// field — min(workers, GOMAXPROCS) — so a workers=4 row recorded on one
// core says so (results are bit-identical either way; speedups require
// GOMAXPROCS > 1).

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"bao"
	"bao/internal/core"
	"bao/internal/model"
	"bao/internal/nn"
	"bao/internal/obs"
	"bao/internal/workload"
)

// benchTrees builds a reproducible set of trees shaped the way the
// featurizer shapes a plan: strictly binary, 5–15 nodes, each row
// core.FeatureDim wide with a one-hot operator slot, a row and a cost
// estimate, and a cache fraction on the leaves (the scans) — four
// non-zeros of fourteen at most.
func benchTrees(n int) ([]*nn.Tree, []float64) {
	const d = core.FeatureDim
	rng := rand.New(rand.NewSource(5))
	trees := make([]*nn.Tree, 0, n)
	ys := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		size := 5 + 2*rng.Intn(6) // odd node counts keep the tree strictly binary
		t := nn.NewTree(size, d)
		for j := 0; j+2 < size; j += 2 {
			t.Left[j/2] = j + 1
			t.Right[j/2] = j + 2
		}
		for j := 0; j < size; j++ {
			row := t.Row(j)
			row[rng.Intn(d-3)] = 1
			row[d-3], row[d-2] = rng.Float64(), rng.Float64()
			if t.Left[j] == -1 {
				row[d-1] = rng.Float64()
			}
		}
		trees = append(trees, t)
		ys = append(ys, rng.Float64())
	}
	return trees, ys
}

func BenchmarkTrain(b *testing.B) {
	trees, ys := benchTrees(256)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := nn.DefaultTCNNConfig(core.FeatureDim)
			cfg.Seed = 3
			tc := nn.DefaultTrainConfig()
			tc.MaxEpochs = 5
			tc.Patience = 10 // fixed epoch count: no early stop inside the loop
			tc.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			meter := startAllocMeter()
			for i := 0; i < b.N; i++ {
				m := nn.NewTCNN(cfg)
				m.Train(trees, ys, tc)
			}
			b.StopTimer()
			recordBenchAllocs(b, 0, min(workers, runtime.GOMAXPROCS(0)), 0, &meter)
		})
	}
}

func BenchmarkPredict(b *testing.B) {
	trees, ys := benchTrees(128)
	tc := nn.DefaultTrainConfig()
	tc.MaxEpochs = 3
	m := model.NewTCNN(core.FeatureDim, tc, 7)
	m.Fit(trees, ys)
	batch := trees[:49] // one prediction fan per arm family
	b.ReportAllocs()
	b.ResetTimer()
	meter := startAllocMeter()
	for i := 0; i < b.N; i++ {
		m.Predict(batch)
	}
	b.StopTimer()
	recordBenchAllocs(b, 0, 1, 0, &meter) // Predict runs on the caller's goroutine
}

func BenchmarkSelect(b *testing.B) {
	inst := workload.IMDb(workload.Config{Scale: 0.06, Queries: 60, Seed: 42})
	eng := bao.NewEngine(bao.GradePostgreSQL, 2000)
	if err := inst.Setup(eng); err != nil {
		b.Fatal(err)
	}
	// Train one model, then share it across the variants so each measures
	// the identical Select path with and without the text-keyed plan
	// cache (repeated-text hits).
	cfg := bao.FastConfig()
	cfg.RetrainEvery = 25
	cfg.Train.MaxEpochs = 10
	opt := bao.New(eng, cfg)
	for _, q := range inst.Queries {
		if _, _, err := opt.Run(q.SQL); err != nil {
			b.Fatal(err)
		}
	}
	var saved bytes.Buffer
	if err := opt.SaveModel(&saved); err != nil {
		b.Fatal(err)
	}
	sql := inst.Queries[0].SQL
	for _, v := range []struct {
		name  string
		cache bool
	}{{"dedup", false}, {"plancache", true}} {
		b.Run(v.name, func(b *testing.B) {
			c := bao.FastConfig()
			c.PlanCache = v.cache
			c.Observer = obs.NewObserver(obs.NewRegistry(), nil)
			o := bao.New(eng, c)
			if err := o.LoadModel(bytes.NewReader(saved.Bytes())); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			meter := startAllocMeter()
			for i := 0; i < b.N; i++ {
				if _, err := o.Select(sql); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			recordBenchAllocs(b, 0, runtime.GOMAXPROCS(0), cacheHitRate(c.Observer), &meter)
		})
	}
}

// BenchmarkPlanArms times the planner stage of a plan-cache miss on its
// own: one join enumeration costing all 49 hint sets, for one, three and
// five relations.
func BenchmarkPlanArms(b *testing.B) {
	inst := workload.IMDb(workload.Config{Scale: 0.06, Queries: 1, Seed: 42})
	eng := bao.NewEngine(bao.GradePostgreSQL, 2000)
	if err := inst.Setup(eng); err != nil {
		b.Fatal(err)
	}
	arms := bao.DefaultArms()
	hints := make([]bao.Hints, len(arms))
	for i, a := range arms {
		hints[i] = a.Hints
	}
	ctx := context.Background()
	for _, v := range []struct {
		rels int
		sql  string
	}{
		{1, "SELECT COUNT(*) FROM title t WHERE t.production_year > 1990 AND t.votes > 1000"},
		{3, "SELECT COUNT(*) FROM title t, cast_info ci, name n WHERE t.id = ci.movie_id AND ci.person_id = n.id AND t.votes > 1000 AND n.gender = 1"},
		{5, "SELECT COUNT(*) FROM title t, cast_info ci, name n, movie_companies mc, company c WHERE t.id = ci.movie_id AND ci.person_id = n.id AND t.id = mc.movie_id AND mc.company_id = c.id AND t.votes > 1000 AND c.country = 3 AND n.gender = 2"},
	} {
		b.Run(fmt.Sprintf("rels=%d", v.rels), func(b *testing.B) {
			q, err := eng.AnalyzeSQL(v.sql)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			meter := startAllocMeter()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.Opt.PlanArms(ctx, q, hints); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			recordBenchAllocs(b, 0, 1, 0, &meter)
		})
	}
}
