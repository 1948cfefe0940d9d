// Observe: run a small workload with the observability endpoint enabled,
// then show what the decision loop recorded — the Prometheus /metrics
// exposition, the key practicality numbers (optimization overhead,
// calibration, retrain cost), and one query's full decision trace.
//
//	go run ./examples/observe               # pick a free port, run, report
//	go run ./examples/observe -listen 127.0.0.1:9090 -wait
//
// With -wait the process stays up after the workload so you can curl the
// endpoints yourself:
//
//	curl http://127.0.0.1:9090/metrics
//	curl http://127.0.0.1:9090/debug/traces?n=1
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"

	"bao"
	"bao/internal/workload"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "address for /metrics and /debug/traces")
	queries := flag.Int("queries", 250, "workload stream length")
	wait := flag.Bool("wait", false, "keep serving after the workload finishes")
	flag.Parse()

	srv, err := bao.ServeObs(*listen)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("observability endpoint: http://%s/metrics and /debug/traces\n\n", srv.Addr)

	// A small IMDb instance and a Bao-steered query stream.
	inst := workload.IMDb(workload.Config{Scale: 0.12, Queries: *queries, Seed: 42})
	eng := bao.NewEngine(bao.GradePostgreSQL, 2000)
	if err := inst.Setup(eng); err != nil {
		log.Fatal(err)
	}
	cfg := bao.FastConfig()
	cfg.RetrainEvery = 40
	opt := bao.New(eng, cfg)
	fmt.Printf("running %d queries through the Bao loop...\n", len(inst.Queries))
	for _, q := range inst.Queries {
		if _, _, err := opt.Run(q.SQL); err != nil {
			log.Fatal(err)
		}
	}

	// The practicality numbers, read programmatically via bao.Stats().
	s := bao.Stats()
	sel := s.Histograms["bao_selection_seconds"]
	fmt.Printf("\nqueries: %.0f   retrains: %.0f (%.2fs wall, %.0f epochs)\n",
		s.Counter("bao_queries_total"), s.Counter("bao_retrains_total"),
		s.Counter("bao_retrain_wall_seconds_total"), s.Counter("bao_train_epochs_total"))
	if sel.Count > 0 {
		fmt.Printf("optimization overhead: %.2f ms/query mean across %d queries\n",
			sel.Sum/float64(sel.Count)*1000, sel.Count)
	}
	// Page hits and misses of the executions Bao learned from.
	if hits, misses := s.Counter("bao_exec_page_hits_total"), s.Counter("bao_exec_page_misses_total"); hits+misses > 0 {
		fmt.Printf("page-hit share of Bao's executions: %.1f%%\n", 100*hits/(hits+misses))
	}
	// The calibration histogram is labelled by arm; the total is the sum.
	var calSum float64
	var calCount int64
	for _, h := range s.LabeledHist["bao_prediction_ratio"] {
		calSum, calCount = calSum+h.Sum, calCount+h.Count
	}
	if calCount > 0 {
		fmt.Printf("prediction calibration: mean observed/predicted %.2f over %d predictions, %.0f gross mispredictions\n",
			calSum/float64(calCount), calCount, s.Counter("bao_gross_mispredictions_total"))
	}
	fmt.Println("\narm selections:")
	for arm, n := range s.Labeled["bao_arm_selected_total"] {
		fmt.Printf("  %-40s %5.0f\n", arm, n)
	}

	// One query's decision trace, newest first.
	if traces := bao.DefaultObserver().Traces(); len(traces) > 0 {
		tr := traces[0]
		fmt.Printf("\ndecision trace #%d (arm %q, model=%v, warmup=%v, window=%d):\n",
			tr.ID, tr.ArmName, tr.UsedModel, tr.WarmUp, tr.WindowSize)
		fmt.Printf("  sql: %s\n", tr.SQL)
		if tr.PredictedSecs > 0 {
			fmt.Printf("  predicted %.4fs, observed %.4fs (ratio %.2f)\n",
				tr.PredictedSecs, tr.ObservedSecs, tr.Ratio)
		} else {
			fmt.Printf("  observed %.4fs\n", tr.ObservedSecs)
		}
		for _, sp := range tr.Spans {
			note := ""
			if sp.Note != "" {
				note = "  (" + sp.Note + ")"
			}
			fmt.Printf("  %8dµs +%-8dµs %s%s\n", sp.StartUS, sp.DurUS, sp.Name, note)
		}
	}

	// Show the exposition format itself, as a scrape would see it.
	res, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	lines := strings.Split(string(body), "\n")
	if len(lines) > 12 {
		lines = lines[:12]
	}
	fmt.Printf("\ncurl http://%s/metrics | head:\n  %s\n", srv.Addr,
		strings.Join(lines, "\n  "))

	if *wait {
		fmt.Println("\nserving until interrupted (-wait)...")
		select {}
	}
}
