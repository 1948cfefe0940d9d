// Package harness drives the paper's experiments: it runs workloads
// through the engine with and without Bao (and against the Neo/DQ
// baselines), converts executor counters into simulated time and dollars
// via the cloud model, and renders each table and figure of the evaluation
// section as text tables. DESIGN.md §4 maps experiment IDs to functions.
package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"bao/internal/cloud"
	"bao/internal/core"
	"bao/internal/engine"
	"bao/internal/executor"
	"bao/internal/workload"
)

// Options are the shared experiment knobs. Scale multiplies dataset sizes
// and Queries sets stream length; the defaults keep every experiment
// laptop-scale while preserving the paper's shapes.
type Options struct {
	Scale   float64
	Queries int
	Seed    int64
	// QueryTimeout, when positive, imposes a per-query deadline (expressed
	// at real-deployment scale, like the serving layer's flag). Queries
	// whose simulated execution exceeds the deadline's compressed budget
	// are recorded as censored experiences at the budget, and their
	// latency/bill contributions clamp to it.
	QueryTimeout time.Duration
	Out          io.Writer
}

func (o Options) wcfg() workload.Config {
	return workload.Config{Scale: o.Scale, Queries: o.Queries, Seed: o.Seed}
}

// System identifies who plans the queries in a run.
type System int

// Systems under test.
const (
	SysNative System = iota // the engine's own optimizer
	SysBao
)

// RunConfig describes one workload execution.
type RunConfig struct {
	Workload *workload.Instance
	VM       cloud.VMType
	Grade    engine.Grade
	System   System
	BaoCfg   core.Config // used when System == SysBao
	// QueryTimeout is the per-query deadline (zero = none). The harness
	// runs on the simulated clock, so rather than cancelling on wall time
	// (which would make runs machine-dependent) it censors post-hoc: any
	// query whose simulated seconds exceed cloud.DeadlineBudgetSecs of the
	// deadline is clamped to the budget and, under Bao, observed as a
	// censored (lower-bound) experience — the same outcome a live
	// cancellation produces, deterministically.
	QueryTimeout time.Duration
}

// QueryRecord is the per-query outcome of a run.
type QueryRecord struct {
	Index     int
	Template  string
	ArmID     int
	OptSecs   float64
	ExecSecs  float64
	PredSecs  float64 // Bao's prediction for the chosen plan (0 pre-training)
	UsedModel bool
	Censored  bool // ExecSecs clamped to the deadline budget (true latency ≥ it)
	Counters  executor.Counters
}

// RunResult is a completed workload execution.
type RunResult struct {
	Cfg        RunConfig
	Records    []QueryRecord
	Bill       cloud.Bill
	TrainCount int
	Bao        *core.Bao // non-nil for Bao runs (for post-hoc analysis)
	Eng        *engine.Engine
}

// TotalSeconds returns the workload's wall-clock (optimization plus
// execution; training is overlapped onto the detachable GPU, following
// §3.2, and therefore appears in the bill but not the makespan).
func (r *RunResult) TotalSeconds() float64 {
	t := 0.0
	for _, q := range r.Records {
		t += q.OptSecs + q.ExecSecs
	}
	return t
}

// ExecSeconds lists per-query execution latencies.
func (r *RunResult) ExecSeconds() []float64 {
	out := make([]float64, len(r.Records))
	for i, q := range r.Records {
		out[i] = q.ExecSecs
	}
	return out
}

// RunWorkload executes a workload under the configuration.
func RunWorkload(cfg RunConfig) (*RunResult, error) {
	eng := engine.New(cfg.Grade, cloud.PagesForVM(cfg.VM))
	if err := cfg.Workload.Setup(eng); err != nil {
		return nil, err
	}
	res := &RunResult{Cfg: cfg, Eng: eng}
	var bao *core.Bao
	if cfg.System == SysBao {
		bao = core.New(eng, cfg.BaoCfg)
		res.Bao = bao
	}
	events := eventReplay(eng, cfg.Workload)
	budget := cloud.DeadlineBudgetSecs(cfg.QueryTimeout)
	for i, q := range cfg.Workload.Queries {
		if err := events(i); err != nil {
			return nil, err
		}
		rec := QueryRecord{Index: i, Template: q.Template}
		if bao != nil {
			sel, err := bao.Select(q.SQL)
			if err != nil {
				return nil, fmt.Errorf("harness: query %d: %w", i, err)
			}
			rec.OptSecs = cloud.BaoPlanSeconds(cfg.VM, sel.Candidates)
			out, err := eng.Execute(sel.Plans[sel.ArmID])
			if err != nil {
				return nil, err
			}
			rec.ArmID = sel.ArmID
			rec.UsedModel = sel.UsedModel
			if sel.Preds != nil {
				rec.PredSecs = sel.Preds[sel.ArmID]
			}
			rec.ExecSecs = cloud.ExecSeconds(out.Counters)
			rec.Counters = out.Counters
			if budget > 0 && rec.ExecSecs > budget {
				// Deadline: the run would have been cancelled at the budget,
				// so charge and learn only up to it — as a censored
				// lower-bound observation, never a fabricated exact latency.
				bao.ObserveTimeout(sel, budget)
				rec.ExecSecs = budget
				rec.Censored = true
			} else {
				bao.Observe(sel, out.Counters)
			}
			// Bill any training that happened on this query's observation:
			// an inline Observe accepts at most one retrain, the newest.
			for res.TrainCount < bao.TrainCount() {
				res.Bill.AddGPU(bao.LastTrain().SimGPUSeconds)
				res.TrainCount++
			}
		} else {
			out, err := eng.Query(q.SQL)
			if err != nil {
				return nil, fmt.Errorf("harness: query %d: %w", i, err)
			}
			rec.OptSecs = cloud.PlanSeconds(out.PlanCandidates)
			rec.ExecSecs = cloud.ExecSeconds(out.Counters)
			rec.Counters = out.Counters
			if budget > 0 && rec.ExecSecs > budget {
				rec.ExecSecs = budget
				rec.Censored = true
			}
		}
		res.Bill.AddVM(rec.OptSecs + rec.ExecSecs)
		res.Records = append(res.Records, rec)
	}
	return res, nil
}

// eventReplay returns a function that, called with each query index of
// inst's stream in order, applies to eng every dataset dynamic
// (workload.Event) scheduled before that query.
func eventReplay(eng *engine.Engine, inst *workload.Instance) func(query int) error {
	next := 0
	return func(query int) error {
		for ; next < len(inst.Events) && inst.Events[next].BeforeQuery <= query; next++ {
			if err := inst.Events[next].Apply(eng); err != nil {
				return fmt.Errorf("harness: event %q: %w", inst.Events[next].Name, err)
			}
		}
		return nil
	}
}

// percentile returns the p-th percentile (0..100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return s[lo]
	}
	frac := idx - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// table renders rows with a header through a tabwriter.
func table(out io.Writer, header []string, rows [][]string) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	fmt.Fprintln(w, strings.Join(underline(header), "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
}

func underline(h []string) []string {
	out := make([]string, len(h))
	for i, s := range h {
		out[i] = strings.Repeat("-", len(s))
	}
	return out
}

func header(out io.Writer, title string) {
	fmt.Fprintf(out, "\n== %s ==\n", title)
}

func fmtSecs(s float64) string {
	switch {
	case s < 1:
		return fmt.Sprintf("%.1fms", s*1000)
	case s < 120:
		return fmt.Sprintf("%.2fs", s)
	default:
		return fmt.Sprintf("%.1fm", s/60)
	}
}
