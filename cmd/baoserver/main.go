// Command baoserver runs the concurrent Bao serving layer over an
// embedded engine loaded with a synthetic workload: an HTTP/JSON API for
// arm selection and feedback, a background trainer that hot-swaps fitted
// models in, and a durable experience log so restarts resume with the
// window, critical-query registry, and model intact.
//
// Usage:
//
//	baoserver [-listen 127.0.0.1:8765] [-workload IMDb|Stack|Corp] [-scale 0.25]
//	          [-explog bao.explog] [-checkpoint-dir DIR] ...   (-h lists every flag)
//
// Endpoints (see internal/server):
//
//	POST /v1/query     {"sql": ...}                      full select-execute-observe
//	POST /v1/select    {"sql": ...}                      arm choice only
//	POST /v1/observe   {"selection_id": ..., "secs": ...} feedback for a selection
//	GET  /v1/model     download the trained model; POST uploads one
//	POST /v1/critical  {"sql": ...}                      mark + explore a critical query
//	GET  /v1/status    serving state
//	GET  /metrics      Prometheus metrics; GET /debug/traces decision traces
//
// SIGINT/SIGTERM shuts down gracefully: in-flight requests drain, the
// trainer finishes (every accepted retrain is already a checkpoint under
// -checkpoint-dir), and the log is flushed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bao"
	"bao/cmd/internal/cli"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8765", "address to serve the Bao API on")
	wlName := cli.Dataset()
	explog, explogSegBytes := cli.Explog()
	maxInFlight := flag.Int("max-inflight", 64, "admitted concurrent requests before shedding with 429")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request handling timeout")
	queryTimeout := cli.QueryTimeout()
	planCache := flag.Bool("plan-cache", true, "cache analyzed queries, planned arm sets and featurized tensors per SQL text (invalidated on retrain, DDL, and ANALYZE)")
	planCacheSize := flag.Int("plan-cache-size", 512, "plan-cache entry bound")
	planCacheBytes := flag.Int64("plan-cache-bytes", 0, "plan-cache resident byte bound (0 = 64 MiB)")
	ckptDir := flag.String("checkpoint-dir", "", "versioned model checkpoint directory: every accepted retrain is saved there, the newest valid generation is restored on startup")
	guardOn := cli.Guard(true)
	eventLog := flag.String("eventlog", "", "rotating JSONL file for the structured event journal (swaps, breaker transitions, checkpoints; /debug/events serves it in-memory regardless)")
	cli.Parse()

	eng := cli.LoadDataset(*wlName)
	cfg := bao.FastConfig()
	cfg.PlanCache = *planCache
	cfg.PlanCacheSize = *planCacheSize
	cfg.PlanCacheBytes = *planCacheBytes
	cfg.QueryTimeout = *queryTimeout
	if *guardOn {
		cfg.Breaker = bao.BreakerConfig{Enabled: true}
		cfg.Validate = bao.ValidateConfig{Enabled: true}
	}
	opt := bao.New(eng, cfg)
	cli.Pretrain(opt)

	srv, err := bao.Serve(opt, *listen, bao.ServerConfig{
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *timeout,
		LogPath:        *explog,
		SegmentBytes:   *explogSegBytes,
		CheckpointDir:  *ckptDir,
		EventLogPath:   *eventLog,
	})
	if err != nil {
		cli.Fatal(err)
	}
	guardState := "off"
	if *guardOn {
		guardState = "on (validation gate + circuit breaker)"
	}
	fmt.Printf("baoserver: serving %s on http://%s (experience=%d, trained=%v, guard=%s)\n",
		*wlName, srv.Addr(), opt.ExperienceSize(), opt.Trained(), guardState)
	fmt.Printf("  try: curl -s -X POST http://%s/v1/query -d '{\"sql\": \"SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id\"}'\n", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nbaoserver: shutting down (draining requests, flushing log)...")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		cli.Fatal(err)
	}
	fmt.Println("baoserver: bye")
}
