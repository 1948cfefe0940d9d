// Advisor mode: Bao observes query executions without steering any plans,
// trains its value model off-policy, and enriches EXPLAIN output with a
// prediction and a recommended hint set (Figure 6 of the paper). A DBA can
// test the recommendation and enable Bao per query.
//
//	go run ./examples/advisor
package main

import (
	"fmt"
	"log"

	"bao"
	"bao/internal/workload"
)

func main() {
	// Load the synthetic IMDb dataset.
	eng := bao.NewEngine(bao.GradePostgreSQL, 2000)
	inst := workload.IMDb(workload.Config{Scale: 0.15, Queries: 160, Seed: 42})
	if err := inst.Setup(eng); err != nil {
		log.Fatal(err)
	}

	cfg := bao.FastConfig()
	cfg.RetrainEvery = 40
	opt := bao.New(eng, cfg)
	opt.AdvisorMode = true // observe and learn, never steer

	fmt.Println("running the workload in advisor mode (PostgreSQL plans only)...")
	for _, q := range inst.Queries {
		if _, _, err := opt.Run(q.SQL); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("observed %d executions, %d model retrains\n\n",
		len(inst.Queries), opt.TrainCount())

	// Ask for advice on a problematic query: the 16b-style trap.
	trap := workload.IMDbJOB(workload.Config{Scale: 0.15, Queries: 1, Seed: 42})[0]
	fmt.Println("imdb=# EXPLAIN", trap.SQL)
	out, err := opt.ExplainWithAdvice(trap.SQL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out)

	// The DBA decides to enable Bao for this query only.
	fmt.Println("imdb=# SET enable_bao TO on;  -- for this query")
	opt.AdvisorMode = false
	res, sel, err := opt.Run(trap.SQL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Bao selected hint set %q → %d rows in %.1f ms (simulated)\n",
		opt.Cfg.Arms[sel.ArmID].Name, res.Rows[0][0].I,
		bao.ExecSeconds(res.Counters)*1000)
}
