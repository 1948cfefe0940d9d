// Command benchmark is the repository's benchmark: four workloads that
// start the router, shards, server and optimizer in-process and drive
// them over loopback HTTP or through their public Go API, answer checks
// on every reply, end-to-end metrics that repeat from run to run, and a
// separate traced run that times the calls into each module from the
// benchmark's own files. See README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// bench is one workload: a set of inputs the benchmark runs.
type bench interface {
	// setup builds the system under test and everything the answer
	// checks need. With a recorder, mounted handlers get span middleware.
	setup(rec *recorder) error
	// run measures the untraced phase and sets every end-to-end metric
	// but setup_s.
	run(rep *report)
	// trace makes the traced run and sets every per-layer metric the
	// workload exercises.
	trace(rep *report, rec *recorder, outDir string)
	close()
}

var workloadNames = []string{"fleet_hit", "miss_select", "learn_serve", "learn_inline"}

func newWorkload(name string, cfg config) bench {
	switch name {
	case "fleet_hit":
		return &fleetHit{cfg: cfg}
	case "miss_select":
		return &missSelect{cfg: cfg}
	case "learn_serve":
		return &learnServe{cfg: cfg}
	case "learn_inline":
		return &learnInline{cfg: cfg}
	}
	return nil
}

// reportRounds sets every end-to-end metric but setup_s from the measured rounds.
// Each is the best round's value (see bestOf); the median round and the
// spread between rounds are printed beside them so a contaminated run
// shows.
func reportRounds(rep *report, rounds []round) {
	n := 0
	for _, r := range rounds {
		if r.ok > n {
			n = r.ok
		}
	}
	if n == 0 {
		rep.problem("no operation succeeded")
		return
	}
	rep.set("qps", bestOf(rounds, round.qps, true), n)
	rep.set("lat_p50_ms", bestOf(rounds, round.p50ms, false), n)
	rep.set("lat_p99_ms", bestOf(rounds, round.p99ms, false), n)
	rep.set("cpu_ms_per_op", bestOf(rounds, round.cpuMsPerOp, false), n)
	rep.set("live_heap_mb", bestOf(rounds, round.liveHeapMB, false), len(rounds))
	qps := make([]float64, len(rounds))
	for i, r := range rounds {
		qps[i] = r.qps()
	}
	rep.note("loadgen.median_round_qps %.1f, loadgen.round_spread %.3f (fastest ÷ slowest) over %d rounds: %.0f",
		median(qps), ratio(percentile(qps, 100), percentile(qps, 0)), len(rounds), qps)
}

// runUntraced sets the workload up cfg.sz.setups times, reporting the
// median as setup_s, and measures on the last one.
func runUntraced(name string, cfg config, out io.Writer) (*report, error) {
	rep := newReport(name, endToEnd)
	var w bench
	var setups []float64
	for i := 0; i < cfg.sz.setups; i++ {
		if w != nil {
			w.close()
		}
		w = newWorkload(name, cfg)
		t0 := time.Now()
		if err := w.setup(nil); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	rep.set("setup_s", median(setups), len(setups))
	w.run(rep)
	return rep, rep.print(out)
}

func runTraced(name string, cfg config, outDir string, out io.Writer) (*report, error) {
	rep := newReport(name, perLayer)
	rec := newRecorder()
	w := newWorkload(name, cfg)
	defer w.close()
	if err := w.setup(rec); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	w.trace(rep, rec, outDir)
	if err := rec.write(outDir, name); err != nil {
		return nil, err
	}
	return rep, rep.print(out)
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: all, or one of "+fmt.Sprint(workloadNames))
		seed    = flag.Int64("seed", 42, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 20, "length of each workload's measured phase")
		trace   = flag.Int("trace", -1, "0 = untraced run only (end-to-end metrics), 1 = traced run only (per-layer metrics), -1 = both")
		aa      = flag.Bool("aa", false, "run every workload's untraced run twice and compare the two against the bounds in -spec")
		outDir  = flag.String("out", "out", "directory for trace.<workload>.json and layers.<workload>.md")
		spec    = flag.String("spec", "../BENCHMARK.json", "BENCHMARK.json, read by -aa for the bounds")
	)
	flag.Parse()
	if err := realMain(*name, *seed, *seconds, *trace, *aa, *outDir, *spec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(name string, seed int64, seconds float64, trace int, aa bool, outDir, spec string) error {
	names := workloadNames
	if name != "all" {
		if newWorkload(name, config{}) == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		names = []string{name}
	}
	tmp, err := os.MkdirTemp("", "baobench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp) //nolint:errcheck // scratch
	cfg := config{seed: seed, seconds: seconds, tmp: tmp, sz: fullSizes}
	fmt.Printf("# %s %s/%s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g clients=%d\n", runtime.Version(),
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), seed, seconds, clients)
	if aa {
		return runAA(names, cfg, spec)
	}
	correct := true
	for _, n := range names {
		if trace != 1 {
			rep, err := runUntraced(n, cfg, os.Stdout)
			if err != nil {
				return err
			}
			correct = correct && len(rep.problems) == 0
		}
		if trace != 0 {
			rep, err := runTraced(n, cfg, outDir, os.Stdout)
			if err != nil {
				return err
			}
			correct = correct && len(rep.problems) == 0
		}
	}
	if !correct && name == "all" {
		return fmt.Errorf("a run was not correct; see the PROBLEM lines")
	}
	return nil
}
