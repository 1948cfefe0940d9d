// Command baoserver runs the concurrent Bao serving layer over an
// embedded engine loaded with a synthetic workload: an HTTP/JSON API for
// arm selection and feedback, a background trainer that hot-swaps fitted
// models in, and a durable experience log so restarts resume with the
// window, critical-query registry, and model intact.
//
// Usage:
//
//	baoserver [-listen 127.0.0.1:8765] [-workload IMDb|Stack|Corp] [-scale 0.25]
//	          [-explog bao.explog] [-model bao.model] [-train 0]
//	          [-max-inflight 64] [-timeout 30s] [-query-timeout 0]
//	          [-workers N]
//	          [-plan-cache=true] [-plan-cache-size 512] [-plan-cache-bytes N] [-infer-batch 64]
//	          [-checkpoint-dir DIR] [-checkpoint-keep 5] [-guard=true]
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
// trainer finishes, the log is flushed, and the model is persisted.
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
	"bao/internal/workload"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8765", "address to serve the Bao API on")
	wlName := flag.String("workload", "IMDb", "dataset to load (IMDb, Stack, Corp)")
	scale := flag.Float64("scale", 0.25, "dataset scale")
	train := flag.Int("train", 0, "pre-train Bao on this many workload queries before serving")
	explog := flag.String("explog", "", "durable experience log path (replayed on startup)")
	explogSegBytes := flag.Int64("explog-segment-bytes", 0, "explog segment rotation bound in bytes (0 = 4 MiB default)")
	modelPath := flag.String("model", "", "value-model path (loaded on startup, saved on shutdown)")
	maxInFlight := flag.Int("max-inflight", 64, "admitted concurrent requests before shedding with 429")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request handling timeout")
	queryTimeout := flag.Duration("query-timeout", 0, "per-query execution deadline; timed-out queries return 504 and record a censored experience (0 = off)")
	workers := flag.Int("workers", 0, "goroutines for Bao inference/training (0 = one per CPU)")
	planCache := flag.Bool("plan-cache", true, "cache planned arm sets and featurized tensors per query fingerprint (invalidated on retrain, DDL, and ANALYZE)")
	planCacheSize := flag.Int("plan-cache-size", 512, "plan-cache entry bound")
	planCacheBytes := flag.Int64("plan-cache-bytes", 0, "plan-cache resident byte bound (0 = 64 MiB)")
	inferBatch := flag.Int("infer-batch", 64, "coalesce concurrent predictions into shared forward passes of at most this many plan tensors (0 = off)")
	ckptDir := flag.String("checkpoint-dir", "", "versioned model checkpoint directory (rolls back past corrupt generations on startup)")
	ckptKeep := flag.Int("checkpoint-keep", 0, "checkpoint generations to retain (0 = default 5)")
	guardOn := flag.Bool("guard", true, "enable the model-quality guardrails: validation-gated hot-swap and the default-plan circuit breaker")
	eventLog := flag.String("eventlog", "", "rotating JSONL file for the structured event journal (swaps, breaker transitions, checkpoints; /debug/events serves it in-memory regardless)")
	flag.Parse()
	if *explogSegBytes < 0 {
		fatal(fmt.Errorf("-explog-segment-bytes must be >= 0 (0 = 4 MiB default), got %d", *explogSegBytes))
	}

	inst, err := workload.ByName(*wlName, workload.Config{Scale: *scale, Queries: maxInt(*train, 1), Seed: 42})
	if err != nil {
		fatal(err)
	}
	eng := bao.NewEngine(bao.GradePostgreSQL, 2000)
	fmt.Printf("loading %s (scale %.2f)...\n", *wlName, *scale)
	if err := inst.Setup(eng); err != nil {
		fatal(err)
	}
	cfg := bao.FastConfig()
	cfg.Workers = *workers
	cfg.PlanCache = *planCache
	cfg.PlanCacheSize = *planCacheSize
	cfg.PlanCacheBytes = *planCacheBytes
	cfg.InferBatch = *inferBatch
	if *guardOn {
		cfg.Breaker = bao.BreakerConfig{Enabled: true}
		cfg.Validate = bao.ValidateConfig{Enabled: true}
	}
	opt := bao.New(eng, cfg)
	if *train > 0 {
		fmt.Printf("pre-training Bao on %d queries...\n", *train)
		for _, q := range inst.Queries[:*train] {
			if _, _, err := opt.Run(q.SQL); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("done (%d retrains)\n", opt.TrainCount())
	}

	srv, err := bao.Serve(opt, *listen, bao.ServerConfig{
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *timeout,
		QueryTimeout:   *queryTimeout,
		LogPath:        *explog,
		SegmentBytes:   *explogSegBytes,
		ModelPath:      *modelPath,
		CheckpointDir:  *ckptDir,
		CheckpointKeep: *ckptKeep,
		EventLogPath:   *eventLog,
	})
	if err != nil {
		fatal(err)
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
	fmt.Println("\nbaoserver: shutting down (draining requests, flushing log, saving model)...")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fatal(err)
	}
	fmt.Println("baoserver: bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "baoserver:", err)
	os.Exit(1)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
