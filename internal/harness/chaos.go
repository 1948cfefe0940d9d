package harness

import (
	"fmt"
	"reflect"
	"time"

	"bao/internal/cloud"
	"bao/internal/core"
	"bao/internal/engine"
	"bao/internal/guard"
	"bao/internal/obs"
)

// chaosFault is the experiment's deterministic fault script, indexed by
// fit-attempt ordinal (never wall time): the first fit trains normally,
// the second panics inside the trainer, the third produces a NaN model
// the validation gate rejects — the second consecutive model failure
// trips the breaker, which then serves the default arm through its
// cool-down, goes half-open, and closes on passing probes.
func chaosFault() *guard.Fault {
	return &guard.Fault{PanicOnFit: 2, NaNOnFit: 3}
}

// chaosConfig is the guard-enabled Bao configuration the chaos runs use:
// frequent retrains so the fault script plays out early in the stream,
// a short cool-down so the recovery arc completes, and regret trips
// disabled so the breaker walks exactly the scripted model-failure path.
func (s *Session) chaosConfig(workers int) core.Config {
	cfg := s.BaoConfig()
	cfg.Train.Workers = workers
	cfg.ArmWarmup = 0
	cfg.RetrainEvery = 16
	cfg.Train.MaxEpochs = 5
	cfg.Train.Patience = 3
	cfg.Breaker = guard.BreakerConfig{
		Enabled:        true,
		ModelFailures:  2,
		RegretFailures: 1000,
		RegretRatio:    1e6,
		Cooldown:       8,
		Probes:         2,
	}
	cfg.Validate = guard.ValidateConfig{Enabled: true}
	cfg.Fault = chaosFault()
	// A private observer per run keeps the guard counters comparable
	// across runs instead of accumulating into the process default. Event
	// capture is on: the determinism check below extends to the journal,
	// proving observability itself never perturbs the replay.
	cfg.Observer = obs.NewObserver(obs.NewRegistry(), nil)
	cfg.Observer.EnableEvents(512)
	return cfg
}

// chaosRun executes the fault-injected workload at one worker count.
func (s *Session) chaosRun(workers int) (*RunResult, error) {
	inst, err := s.Instance("IMDb")
	if err != nil {
		return nil, err
	}
	cfg := RunConfig{Workload: inst, VM: cloud.N1_4, Grade: engine.GradePostgreSQL,
		System: SysBao, BaoCfg: s.chaosConfig(workers)}
	return RunWorkload(cfg)
}

// Chaos is the guard subsystem's determinism experiment: it replays the
// injected fault script (bad fit → NaN model → breaker trip → cool-down →
// half-open probes → close) at two worker counts and verifies the breaker
// walked byte-identical state transitions in both runs — the breaker's
// clock is the decision counter, not wall time, so worker scheduling must
// be unobservable. It prints the transition record and the guard's
// counters, and fails if the runs diverge.
func (s *Session) Chaos() error {
	out := s.Opts.Out
	header(out, "Chaos: deterministic fault script across worker counts (IMDb)")

	workerCounts := []int{1, 4}
	runs := make([]*RunResult, len(workerCounts))
	for i, w := range workerCounts {
		r, err := s.chaosRun(w)
		if err != nil {
			return fmt.Errorf("harness: chaos workers=%d: %w", w, err)
		}
		runs[i] = r
	}

	base := runs[0].Bao.Breaker().Transitions()
	for i, r := range runs[1:] {
		got := r.Bao.Breaker().Transitions()
		if !reflect.DeepEqual(base, got) {
			return fmt.Errorf("harness: chaos: breaker transitions diverge between workers=%d and workers=%d:\n%+v\nvs\n%+v",
				workerCounts[0], workerCounts[i+1], base, got)
		}
	}

	// The structured event journal must replay identically too, once the
	// wall-clock fields (At, Secs — fit wall time varies run to run) are
	// projected out: event order, kinds, details, and decision numbers are
	// all decision-clocked.
	baseEvents := projectEvents(runs[0].Bao.Observer().Events())
	for i, r := range runs[1:] {
		got := projectEvents(r.Bao.Observer().Events())
		if !reflect.DeepEqual(baseEvents, got) {
			return fmt.Errorf("harness: chaos: event journal diverges between workers=%d and workers=%d:\n%+v\nvs\n%+v",
				workerCounts[0], workerCounts[i+1], baseEvents, got)
		}
	}

	var rows [][]string
	for _, tr := range base {
		rows = append(rows, []string{
			fmt.Sprintf("%d", tr.Decision), tr.From.String(), tr.To.String(), tr.Reason,
		})
	}
	table(out, []string{"Decision", "From", "To", "Reason"}, rows)

	var sumRows [][]string
	for i, r := range runs {
		snap := r.Bao.Stats()
		sumRows = append(sumRows, []string{
			fmt.Sprintf("%d", workerCounts[i]),
			fmt.Sprintf("%.0f", snap.Counter("bao_trainer_panics_total")),
			fmt.Sprintf("%.0f", snap.Counter("bao_retrain_rejected_total")),
			fmt.Sprintf("%.0f", snap.Counter("bao_breaker_trips_total")),
			fmt.Sprintf("%.0f", snap.Counter("bao_breaker_default_served_total")),
			fmt.Sprintf("%d", r.TrainCount),
			r.Bao.Breaker().State().String(),
			fmtSecs(r.TotalSeconds()),
		})
	}
	table(out, []string{"Workers", "TrainerPanics", "Rejected", "Trips", "DefaultServed",
		"Retrains", "FinalState", "WorkloadTime"}, sumRows)

	fmt.Fprintf(out, "breaker transitions identical across worker counts %v (%d transitions, decision-clocked)\n",
		workerCounts, len(base))
	fmt.Fprintf(out, "event journal identical across worker counts %v (%d events, wall-clock fields excluded)\n",
		workerCounts, len(baseEvents))
	return nil
}

// projectEvents strips the wall-clock fields from a journal snapshot so
// deterministic runs compare equal: At is real time and Secs carries fit
// wall time; everything else — order, sequence numbers, kinds, details,
// decision ordinals — is decision-clocked and must match exactly.
func projectEvents(events []obs.Event) []obs.Event {
	out := make([]obs.Event, len(events))
	for i, ev := range events {
		ev.At = time.Time{}
		ev.Secs = 0
		out[i] = ev
	}
	return out
}
