// Dynamic schema: the Corp workload normalizes its fact table half-way
// through the stream (Table 1's schema change). Because Bao's featurization
// never encodes table or column identities — only operators, optimizer
// estimates, and cache state — the learned model survives the change
// without retraining from scratch.
//
//	go run ./examples/dynamic
package main

import (
	"fmt"
	"log"

	"bao"
	"bao/internal/workload"
)

func main() {
	cfg := workload.Config{Scale: 0.2, Queries: 240, Seed: 42}
	inst := workload.Corp(cfg)

	eng := bao.NewEngine(bao.GradePostgreSQL, 1500)
	if err := inst.Setup(eng); err != nil {
		log.Fatal(err)
	}

	bcfg := bao.FastConfig()
	bcfg.RetrainEvery = 40
	opt := bao.New(eng, bcfg)

	half := len(inst.Queries) / 2
	var pre, post float64
	ev := 0
	for i, q := range inst.Queries {
		for ev < len(inst.Events) && inst.Events[ev].BeforeQuery <= i {
			fmt.Printf("--- applying schema change %q before query %d ---\n",
				inst.Events[ev].Name, i)
			if err := inst.Events[ev].Apply(eng); err != nil {
				log.Fatal(err)
			}
			ev++
		}
		res, _, err := opt.Run(q.SQL)
		if err != nil {
			log.Fatalf("query %d (%s): %v", i, q.Template, err)
		}
		if i < half {
			pre += bao.ExecSeconds(res.Counters)
		} else {
			post += bao.ExecSeconds(res.Counters)
		}
	}
	fmt.Printf("before normalization: %.2fs simulated over %d queries\n", pre, half)
	fmt.Printf("after  normalization: %.2fs simulated over %d queries\n",
		post, len(inst.Queries)-half)
	fmt.Printf("model retrains: %d; experience window survived the schema change\n",
		opt.TrainCount())

	// Show that post-change queries really use the new schema.
	sql := "SELECT SUM(f.amount) FROM fact f, account a WHERE f.account_id = a.id AND a.dept_id = 3 AND a.region_id = 9"
	res, sel, err := opt.Run(sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("normalized-schema query → %v (arm %q)\n",
		res.Rows[0][0], opt.Cfg.Arms[sel.ArmID].Name)
}
