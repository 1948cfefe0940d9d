// Package cli registers, once, the flags that two or more binaries under
// cmd/ share. Parse validates them: exit 1 with a message naming the flag,
// before any dataset loads or file opens.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bao"
	"bao/internal/workload"
)

// Range-checked flags (nil in a binary without them) and the loaded workload.
var (
	scale    *float64
	train    *int
	segBytes *int64
	inst     *workload.Instance
)

// Parse parses the command line and range-checks the shared flags.
func Parse() {
	flag.Parse()
	switch {
	case scale != nil && !(*scale > 0):
		Fatal(fmt.Errorf("-scale must be > 0, got %v", *scale))
	case train != nil && *train < 0:
		Fatal(fmt.Errorf("-train must be >= 0, got %d", *train))
	case segBytes != nil && *segBytes < 0:
		Fatal(fmt.Errorf("-explog-segment-bytes must be >= 0 (0 = 4 MiB default), got %d", *segBytes))
	}
}

// Fatal prints "<binary>: err" and exits 1.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	os.Exit(1)
}

// ServeObs serves /metrics and the /debug endpoints of the default
// observer on addr until the process exits ("" = off).
func ServeObs(addr string) {
	if addr == "" {
		return
	}
	srv, err := bao.ServeObs(addr)
	if err != nil {
		Fatal(err)
	}
	fmt.Printf("observability: http://%s/metrics, /debug/traces, /debug/events\n", srv.Addr)
}

// Scale registers -scale.
func Scale() *float64 {
	scale = flag.Float64("scale", 0.25, "dataset scale multiplier (> 0)")
	return scale
}

// QueryTimeout registers -query-timeout.
func QueryTimeout() *time.Duration {
	return flag.Duration("query-timeout", 0, "per-query deadline; a query over it is cancelled (baoserver: 504) and recorded as a censored experience (0 = off)")
}

// Guard registers -guard with the binary's default.
func Guard(def bool) *bool {
	return flag.Bool("guard", def, "enable the model-quality guardrails: validation-gated hot-swap and the default-plan circuit breaker")
}

// Explog registers -explog and -explog-segment-bytes.
func Explog() (path *string, segmentBytes *int64) {
	return flag.String("explog", "", "durable experience log path (replayed on startup, appended while running)"), ExplogSegmentBytes()
}

// ExplogSegmentBytes registers -explog-segment-bytes alone (baorouter's
// tenants each log under their own namespace).
func ExplogSegmentBytes() *int64 {
	segBytes = flag.Int64("explog-segment-bytes", 0, "explog segment rotation bound in bytes (0 = 4 MiB default)")
	return segBytes
}

// Dataset registers -workload (returned), -scale and -train.
func Dataset() *string {
	Scale()
	train = flag.Int("train", 0, "pre-train Bao on this many workload queries before serving")
	return flag.String("workload", "IMDb", "dataset to load (IMDb, Stack, Corp)")
}

// LoadDataset generates the named workload's dataset into a fresh engine.
func LoadDataset(name string) *bao.Engine {
	var err error
	if inst, err = workload.ByName(name, workload.Config{Scale: *scale, Queries: max(*train, 1), Seed: 42}); err != nil {
		Fatal(err)
	}
	eng := bao.NewEngine(bao.GradePostgreSQL, 2000)
	fmt.Printf("loading %s (scale %.2f)...\n", name, *scale)
	if err := inst.Setup(eng); err != nil {
		Fatal(err)
	}
	return eng
}

// Pretrain runs the loaded workload's first -train queries through opt. A
// query over opt's QueryTimeout is recorded as censored, as while serving.
func Pretrain(opt *bao.Optimizer) {
	if *train == 0 {
		return
	}
	fmt.Printf("pre-training Bao on %d queries...\n", *train)
	for _, q := range inst.Queries[:*train] {
		if _, _, err := opt.Run(q.SQL); err != nil && !errors.Is(err, bao.ErrDeadlineExceeded) {
			Fatal(err)
		}
	}
	fmt.Printf("done (%d retrains)\n", opt.TrainCount())
}
