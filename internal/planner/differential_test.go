package planner_test

import (
	"fmt"
	"testing"

	"bao/internal/engine"
	"bao/internal/planner"
	"bao/internal/workload"
)

// TestPlanArmsDifferentialWorkloads: for every query of every workload's
// stream — long enough to reach every template, with the workload's data
// and schema events applied on the way — PlanArms returns for all hint
// sets exactly the plans and candidate counts of the per-hint-set
// reference enumeration, at two seeds and both estimation grades.
func TestPlanArmsDifferentialWorkloads(t *testing.T) {
	hints := planner.AllHintSets()
	workloads := []struct {
		name      string
		gen       func(workload.Config) *workload.Instance
		templates int
	}{
		{"IMDb", workload.IMDb, 13},
		{"IMDbStable", workload.IMDbStable, 13},
		{"Stack", workload.Stack, 8},
		{"Corp", workload.Corp, 9},
		{"Micro", workload.Micro, 3},
	}
	for _, w := range workloads {
		for i, seed := range []int64{42, 7, 42, 7} {
			grade := engine.Grade(i / 2)
			t.Run(fmt.Sprintf("%s/%v/seed=%d", w.name, grade, seed), func(t *testing.T) {
				e := engine.New(grade, 2000)
				inst := w.gen(workload.Config{Scale: 0.1, Queries: 400, Seed: seed})
				if err := inst.Setup(e); err != nil {
					t.Fatal(err)
				}
				templates := map[string]bool{}
				planned := map[string]bool{}
				events := inst.Events
				for qi, wq := range inst.Queries {
					for len(events) > 0 && events[0].BeforeQuery <= qi {
						if err := events[0].Apply(e); err != nil {
							t.Fatal(err)
						}
						events = events[1:]
						planned = map[string]bool{} // data or schema moved: plan the texts again
					}
					templates[wq.Template] = true
					if planned[wq.SQL] {
						continue
					}
					planned[wq.SQL] = true
					q, err := e.AnalyzeSQL(wq.SQL)
					if err != nil {
						t.Fatalf("query %d: %v", qi, err)
					}
					if err := planner.DiffPlanArms(e.Opt, q, hints); err != nil {
						t.Fatalf("query %d (%s): %s\n%v", qi, wq.Template, wq.SQL, err)
					}
				}
				if len(templates) != w.templates {
					t.Fatalf("stream reached %d of the workload's %d templates", len(templates), w.templates)
				}
			})
		}
	}
}
