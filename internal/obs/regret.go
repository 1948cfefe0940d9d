package obs

import (
	"sort"
	"sync"
)

// RegretEntry is one decision's regret accounting: the latency Bao
// observed for the arm it chose against two baselines — the default arm
// (what the underlying optimizer would have done, Bao's safety floor) and
// the best arm (the lowest latency the model believes achievable this
// decision). Baselines are the model's own predictions: a counterfactual
// the model believes, not ground truth. Measured per-arm regret is the
// experiment harness's Figure 16 table.
type RegretEntry struct {
	TraceID      uint64  `json:"trace_id,omitempty"`
	RequestID    string  `json:"request_id,omitempty"`
	ArmID        int     `json:"arm_id"`
	Arm          string  `json:"arm"`
	ObservedSecs float64 `json:"observed_secs"`
	DefaultSecs  float64 `json:"default_secs"`
	BestSecs     float64 `json:"best_secs"`
	Censored     bool    `json:"censored,omitempty"`
	WarmUp       bool    `json:"warmup,omitempty"`
}

// VsDefault is the signed regret against the default arm: positive means
// Bao's choice cost more than not steering at all.
func (e RegretEntry) VsDefault() float64 { return e.ObservedSecs - e.DefaultSecs }

// VsBest is the signed regret against the best arm this decision.
func (e RegretEntry) VsBest() float64 { return e.ObservedSecs - e.BestSecs }

// ArmRegretStats aggregates regret per arm over the ledger's lifetime.
type ArmRegretStats struct {
	Arm           string  `json:"arm"`
	Decisions     uint64  `json:"decisions"`
	Censored      uint64  `json:"censored,omitempty"`
	ObservedSecs  float64 `json:"observed_secs"`
	VsDefaultSecs float64 `json:"vs_default_secs"`
	VsBestSecs    float64 `json:"vs_best_secs"`
}

// RegretSnapshot is the JSON shape served by /debug/regret: cumulative
// and sliding-window regret totals, per-arm aggregates, and the raw
// window entries (newest first) for drill-down.
type RegretSnapshot struct {
	Decisions           uint64           `json:"decisions"`
	CumVsDefaultSecs    float64          `json:"cum_vs_default_secs"`
	CumVsBestSecs       float64          `json:"cum_vs_best_secs"`
	WindowLen           int              `json:"window_len"`
	WindowVsDefaultSecs float64          `json:"window_vs_default_secs"`
	WindowVsBestSecs    float64          `json:"window_vs_best_secs"`
	PerArm              []ArmRegretStats `json:"per_arm"`
	Window              []RegretEntry    `json:"window"`
}

// RegretLedger keeps cumulative regret totals, per-arm aggregates, and a
// bounded window of recent entries. All methods are nil-safe so the
// disabled observer pays nothing.
type RegretLedger struct {
	mu        sync.Mutex
	win       ring[RegretEntry]
	decisions uint64
	cumDef    float64
	cumBest   float64
	winDef    float64 // running sums over the current window contents
	winBest   float64
	perArm    map[string]*ArmRegretStats
}

// NewRegretLedger creates a ledger windowing the last n decisions
// (n < 1 is clamped to 1).
func NewRegretLedger(n int) *RegretLedger {
	return &RegretLedger{win: newRing[RegretEntry](n), perArm: map[string]*ArmRegretStats{}}
}

// Record admits one decision, evicting the oldest window entry when full,
// and returns the updated regret against the default arm, cumulative and
// over the window — what the observer's gauges show, handed back so they
// refresh without a second lock acquisition.
func (l *RegretLedger) Record(e RegretEntry) (cumVsDefault, winVsDefault float64) {
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if old, evicted := l.win.push(e); evicted {
		l.winDef -= old.VsDefault()
		l.winBest -= old.VsBest()
	}
	l.decisions++
	l.cumDef += e.VsDefault()
	l.cumBest += e.VsBest()
	l.winDef += e.VsDefault()
	l.winBest += e.VsBest()
	a := l.perArm[e.Arm]
	if a == nil {
		a = &ArmRegretStats{Arm: e.Arm}
		l.perArm[e.Arm] = a
	}
	a.Decisions++
	if e.Censored {
		a.Censored++
	}
	a.ObservedSecs += e.ObservedSecs
	a.VsDefaultSecs += e.VsDefault()
	a.VsBestSecs += e.VsBest()
	return l.cumDef, l.winDef
}

// Snapshot copies the ledger's state; window entries come out newest
// first, per-arm aggregates sorted by arm name.
func (l *RegretLedger) Snapshot() RegretSnapshot {
	s := RegretSnapshot{PerArm: []ArmRegretStats{}, Window: []RegretEntry{}}
	if l == nil {
		return s
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s.Decisions = l.decisions
	s.CumVsDefaultSecs = l.cumDef
	s.CumVsBestSecs = l.cumBest
	s.WindowVsDefaultSecs = l.winDef
	s.WindowVsBestSecs = l.winBest
	s.Window = l.win.newestFirst()
	s.WindowLen = len(s.Window)
	for _, a := range l.perArm {
		s.PerArm = append(s.PerArm, *a)
	}
	sort.Slice(s.PerArm, func(i, j int) bool { return s.PerArm[i].Arm < s.PerArm[j].Arm })
	return s
}

// driftWindow tracks the median log(observed/predicted) over the last N
// calibrated decisions — "how far off is the model right now", which a
// HERO-style confidence gate can read (nothing does yet; the breaker
// scores outcomes itself): 0 means calibrated, positive means
// systematically optimistic (observed slower than predicted), negative
// pessimistic.
type driftWindow struct {
	mu sync.Mutex
	r  ring[float64]
}

func newDriftWindow(n int) *driftWindow { return &driftWindow{r: newRing[float64](n)} }

// add records one log-ratio and returns the median over the current
// window contents.
func (d *driftWindow) add(logRatio float64) float64 {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	d.r.push(logRatio)
	tmp := d.r.newestFirst()
	d.mu.Unlock()
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}
