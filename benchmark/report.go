package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metric is one declared metric; BENCHMARK.json lists the same names and
// units (the smoke test keeps the two in step).
type metric struct{ name, unit string }

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, so each is defined for all four: an "operation" is
// one HTTP request on the serving workloads and one
// select→execute→observe iteration on learn_inline.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"live_heap_mb", "MiB"},
}

// perLayer is the traced run's output, <module>.<metric>. A workload
// that never enters a layer reports 0 for it: the layer did no work.
var perLayer = []metric{
	{"loadgen.rtt_self_p50_us", "us"},
	{"loadgen.open_lat_p50_ms", "ms"},
	{"loadgen.open_lat_p99_ms", "ms"},
	{"loadgen.open_lag_p99_ms", "ms"},
	{"loadgen.open_sent", "count"},
	{"router.hop_p50_us", "us"},
	{"router.hop_share", "ratio"},
	{"router.allocs_per_op", "count"},
	{"router.failover_retries", "count"},
	{"server.self_p50_us", "us"},
	{"server.allocs_per_select", "count"},
	{"server.kb_per_select", "KiB"},
	{"server.rejected_429", "count"},
	{"server.tenant_acquire_p50_us", "us"},
	{"server.hot_swaps", "count"},
	{"server.retrain_coalesced_share", "ratio"},
	{"server.trainer_lag_s", "s"},
	{"sqlparser.parse_p50_us", "us"},
	{"sqlparser.allocs_per_parse", "count"},
	{"engine.analyze_p50_us", "us"},
	{"planner.plan_arm_p50_us", "us"},
	{"planner.plan_49arms_p50_ms", "ms"},
	{"planner.plan_49arms_p99_ms", "ms"},
	{"planner.candidates_per_query", "count"},
	{"planner.allocs_per_query", "count"},
	{"core.select_hit_p50_us", "us"},
	{"core.select_hit_allocs", "count"},
	{"core.select_miss_p50_ms", "ms"},
	{"core.select_miss_p99_ms", "ms"},
	{"core.select_miss_allocs", "count"},
	{"core.select_miss_kb", "KiB"},
	{"core.select_self_p50_us", "us"},
	{"core.featurize_p50_us", "us"},
	{"core.unique_plan_share", "ratio"},
	{"core.observe_p50_us", "us"},
	{"core.observe_allocs", "count"},
	{"core.plancache_hit_share", "ratio"},
	{"core.plancache_evictions", "count"},
	{"core.plancache_mb", "MiB"},
	{"core.sim_s_total", "s"},
	{"core.sim_speedup_vs_native", "ratio"},
	{"nn.predict_p50_us_per_query", "us"},
	{"nn.predict_us_per_tree", "us"},
	{"nn.predict_allocs_per_query", "count"},
	{"nn.retrain_p50_ms", "ms"},
	{"nn.fit_s", "s"},
	{"nn.fit_samples", "count"},
	{"nn.fit_epochs", "count"},
	{"nn.fit_allocs_per_sample", "count"},
	{"executor.exec_p50_ms", "ms"},
	{"executor.exec_p99_ms", "ms"},
	{"executor.wall_ms_per_sim_s", "ms/s"},
	{"executor.allocs_per_query", "count"},
	{"bufferpool.hit_share", "ratio"},
	{"explog.append_p50_us", "us"},
	{"explog.append_p99_us", "us"},
	{"explog.bytes_per_append", "B"},
	{"explog.allocs_per_append", "count"},
	{"explog.recovery_ms", "ms"},
	{"explog.recovered_share", "ratio"},
	{"explog.disk_bytes_per_exp", "B"},
	{"explog.replay_ms", "ms"},
	{"explog.compact_ms", "ms"},
	{"explog.snapshots", "count"},
	{"explog.segments", "count"},
	{"explog.tail_frames", "count"},
	{"guard.checkpoint_save_ms", "ms"},
	{"guard.checkpoint_restore_ms", "ms"},
	{"guard.checkpoint_kb", "KiB"},
	{"obs.overhead_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"trace.unattributed_share", "ratio"},
}

// report collects one run's metrics and answer checks.
type report struct {
	workload  string
	declared  []metric
	values    map[string]float64
	samples   map[string]int // sample count behind a timing, when there is one
	attempted int
	failed    int
	problems  []string // why the run is not correct; empty when it is
	notes     []string // diagnostics printed beside the metrics
}

func newReport(workload string, declared []metric) *report {
	return &report{workload: workload, declared: declared,
		values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric; n is the sample count behind it (0 = a single
// measurement or a counter).
func (r *report) set(name string, v float64, n int) {
	for _, m := range r.declared {
		if m.name == name {
			r.values[name] = v
			r.samples[name] = n
			return
		}
	}
	panic("benchmark: metric not declared: " + name) // a bug in the benchmark
}

// count adds operations to the attempted/failed tally; a non-nil err is
// kept as the reason the run is not correct.
func (r *report) count(attempted, failed int, err error) {
	r.attempted += attempted
	r.failed += failed
	if failed > 0 {
		r.problem("%d of %d operations failed, first: %v", failed, attempted, err)
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// print writes every declared metric by name with its unit and sample
// count, then the result object the driver reads as the last line.
func (r *report) print(w io.Writer) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, map[string]jsonMetric{}}
	for _, n := range r.notes {
		fmt.Fprintf(w, "%-12s # %s\n", r.workload, n)
	}
	for _, m := range r.declared {
		v := r.values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("%s is not finite", m.name)
			out.Correct = false
			v = 0
		}
		n := ""
		if r.samples[m.name] > 0 {
			n = fmt.Sprintf("  n=%d", r.samples[m.name])
		}
		fmt.Fprintf(w, "%-12s %-32s %14.6g %-6s%s\n", r.workload, m.name, v, m.unit, n)
		out.Metrics[m.name] = jsonMetric{v, m.unit}
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "%-12s PROBLEM %s\n", r.workload, p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
