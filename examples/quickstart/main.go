// Quickstart: build a small database, run a query stream through Bao, and
// compare its simulated latency against the engine's native optimizer.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"bao"
)

func main() {
	// 1. Build an engine and a two-table schema: orders reference
	//    customers, with a popularity-skewed foreign key (a few customers
	//    place most orders) — the classic trap for NDV-based estimators.
	eng := bao.NewEngine(bao.GradePostgreSQL, 800)
	eng.CreateTable(bao.MustTable("customers",
		bao.Column{Name: "id", Type: bao.Int},
		bao.Column{Name: "segment", Type: bao.Int},
		bao.Column{Name: "ltv", Type: bao.Int}, // lifetime value, popularity-correlated
	))
	eng.CreateTable(bao.MustTable("orders",
		bao.Column{Name: "id", Type: bao.Int},
		bao.Column{Name: "customer_id", Type: bao.Int},
		bao.Column{Name: "amount", Type: bao.Int},
	))

	rng := rand.New(rand.NewSource(1))
	const nCust, nOrders = 5000, 60000
	var custs []bao.Row
	for i := 0; i < nCust; i++ {
		ltv := int64(1e6 / float64(i+1)) // customer 0 is the biggest
		seg := int64(rng.Intn(5))
		if i < 120 && rng.Intn(10) < 8 {
			seg = 9 // "enterprise": correlated with high ltv — the trap
		}
		custs = append(custs, bao.Row{bao.IntVal(int64(i)),
			bao.IntVal(seg), bao.IntVal(ltv)})
	}
	must(eng.Insert("customers", custs))
	zipf := rand.NewZipf(rng, 1.3, 1, nCust-1)
	var orders []bao.Row
	for i := 0; i < nOrders; i++ {
		orders = append(orders, bao.Row{bao.IntVal(int64(i)),
			bao.IntVal(int64(zipf.Uint64())), bao.IntVal(int64(rng.Intn(500)))})
	}
	must(eng.Insert("orders", orders))
	must(eng.CreateIndex(bao.Index{Name: "ix_c_id", Table: "customers", Column: "id", Unique: true}))
	must(eng.CreateIndex(bao.Index{Name: "ix_o_cust", Table: "orders", Column: "customer_id"}))
	eng.Analyze()

	// 2. A query stream: most queries are cheap lookups, but "big
	//    customers" queries select exactly the high-fan-out rows.
	queries := func(n int) []string {
		qrng := rand.New(rand.NewSource(2))
		var out []string
		for i := 0; i < n; i++ {
			if qrng.Intn(4) == 0 {
				// The trap: segment 9 and high lifetime value are the SAME
				// customers, so the independence assumption under-estimates
				// the match count ~50x and the optimizer probes an index
				// across most of the orders table.
				out = append(out, fmt.Sprintf(
					"SELECT COUNT(*) FROM customers c, orders o WHERE c.id = o.customer_id AND c.segment = 9 AND c.ltv > %d",
					2000+qrng.Intn(6000)))
			} else {
				out = append(out, fmt.Sprintf(
					"SELECT COUNT(*) FROM customers c, orders o WHERE c.id = o.customer_id AND c.segment = %d AND c.ltv < %d",
					qrng.Intn(5), 150+qrng.Intn(150)))
			}
		}
		return out
	}

	// 3. Run the stream twice: native optimizer, then Bao.
	stream := queries(500)
	native := 0.0
	for _, q := range stream {
		res, err := eng.Query(q)
		must(err)
		native += bao.ExecSeconds(res.Counters)
	}

	eng.Pool.Clear()
	cfg := bao.FastConfig()
	cfg.RetrainEvery = 40
	opt := bao.New(eng, cfg)
	learned := 0.0
	for _, q := range stream {
		res, sel, err := opt.Run(q)
		must(err)
		_ = sel
		learned += bao.ExecSeconds(res.Counters)
	}

	fmt.Printf("native optimizer: %6.2fs simulated execution\n", native)
	fmt.Printf("Bao:              %6.2fs simulated execution (%d retrains)\n",
		learned, opt.TrainCount())
	if learned < native {
		fmt.Printf("Bao saved %.0f%% — mostly on the skewed-join tail queries.\n",
			(1-learned/native)*100)
	} else {
		fmt.Println("Bao has not converged yet — try a longer stream.")
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
