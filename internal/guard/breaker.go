// Package guard is the model-quality guardrail subsystem: it decides
// when a freshly trained model may replace the incumbent (validate.go),
// persists models as versioned, checksummed checkpoints that roll back
// past corruption (checkpoint.go), and — when the learned path itself
// goes bad — trips a circuit breaker that serves the default optimizer's
// plan until the system proves itself healthy again (this file).
//
// Together these implement the degradation ladder behind the paper's
// practicality argument (§1, §3): Bao must never be far worse than the
// underlying optimizer, because every failure mode has a cheaper layer to
// fall back to — reject the candidate model, roll back the checkpoint,
// trip the breaker, serve the default plan.
//
// Everything in this package is deterministic by construction: the
// breaker's clock is a decision counter (one tick per Select), never wall
// time, so fault scripts replay byte-identically across worker counts and
// under -race.
package guard

import "sync"

// State is the circuit breaker's position.
type State int

// Breaker states. The numeric values are exported as the
// bao_breaker_state gauge.
const (
	// Closed: the learned path serves; outcomes are being scored.
	Closed State = iota
	// Open: the default arm serves every decision for a cool-down.
	Open
	// HalfOpen: the learned path serves probe decisions; enough
	// successes close the breaker, any failure reopens it.
	HalfOpen
)

// String names the state for status endpoints and logs.
func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig tunes the default-plan circuit breaker. The zero value
// with Enabled set gets the defaults from WithDefaults.
type BreakerConfig struct {
	// Enabled turns the breaker on; a disabled breaker is never
	// constructed and every guard call is a nil-safe no-op.
	Enabled bool
	// ModelFailures is how many consecutive model failures (rejected
	// candidates, trainer panics) trip the breaker.
	ModelFailures int
	// RegretFailures is how many consecutive serving regressions — a
	// learned selection observed far over the default arm's prediction —
	// trip the breaker.
	RegretFailures int
	// RegretRatio: an observation counts as a regression when it exceeds
	// RegretRatio times the default arm's predicted seconds (and the
	// absolute floor every misprediction check in core shares).
	RegretRatio float64
	// Cooldown is how many decisions the default arm serves after a trip
	// before the breaker goes half-open.
	Cooldown int
	// Probes is how many consecutive successful half-open outcomes close
	// the breaker.
	Probes int
}

// WithDefaults fills unset fields with the defaults.
func (c BreakerConfig) WithDefaults() BreakerConfig {
	if c.ModelFailures <= 0 {
		c.ModelFailures = 3
	}
	if c.RegretFailures <= 0 {
		c.RegretFailures = 5
	}
	if c.RegretRatio <= 0 {
		c.RegretRatio = 4
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 32
	}
	if c.Probes <= 0 {
		c.Probes = 3
	}
	return c
}

// Transition is one breaker state change, stamped with the decision
// ordinal (not wall time) at which it happened — the record tests pin
// byte-for-byte across worker counts.
type Transition struct {
	From     State  `json:"from"`
	To       State  `json:"to"`
	Reason   string `json:"reason"`
	Decision uint64 `json:"decision"`
}

// Breaker is the default-plan circuit breaker. All methods are safe for
// concurrent use and nil-safe, so callers hold a possibly-nil *Breaker
// and never branch on whether the guard is configured.
type Breaker struct {
	cfg          BreakerConfig
	onTransition func(Transition) // called with b.mu held; must not call back

	mu           sync.Mutex
	state        State
	decisions    uint64 // Allow calls so far: the breaker's clock
	cooldownLeft int
	probeOK      int
	modelFails   int
	regretFails  int
	trips        uint64
	transitions  []Transition
}

// NewBreaker builds a breaker. onTransition, when non-nil, observes every
// state change (the observability layer points it at the breaker gauge
// and trip counter); it runs under the breaker's lock and must not call
// back into the breaker.
func NewBreaker(cfg BreakerConfig, onTransition func(Transition)) *Breaker {
	return &Breaker{cfg: cfg.WithDefaults(), onTransition: onTransition}
}

// Allow advances the breaker's decision clock by one and reports whether
// the learned path may serve this decision. While open it counts down the
// cool-down, transitioning to half-open (and allowing the decision as the
// first probe) once the cool-down is spent.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.decisions++
	switch b.state {
	case Open:
		if b.cooldownLeft > 0 {
			b.cooldownLeft--
			return false
		}
		b.probeOK = 0
		b.setStateLocked(HalfOpen, "cooldown-elapsed")
		return true
	default:
		return true
	}
}

// ReportOutcome scores one served decision: failure means the learned
// selection regressed materially against the default arm. Consecutive
// failures trip a closed breaker; while half-open any failure reopens it
// and enough consecutive successes close it.
func (b *Breaker) ReportOutcome(failure bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		if !failure {
			b.regretFails = 0
			return
		}
		b.regretFails++
		if b.regretFails >= b.cfg.RegretFailures {
			b.tripLocked("regret")
		}
	case HalfOpen:
		if failure {
			b.tripLocked("probe-regret")
			return
		}
		b.probeOK++
		if b.probeOK >= b.cfg.Probes {
			b.regretFails = 0
			b.modelFails = 0
			b.setStateLocked(Closed, "probes-passed")
		}
	}
}

// ModelFailure records a training-side failure: a candidate model
// rejected by validation or a trainer panic. Enough consecutive failures
// trip a closed breaker; any model failure reopens a half-open one (the
// system is demonstrably not healthy yet).
func (b *Breaker) ModelFailure(reason string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.modelFails++
	switch b.state {
	case Closed:
		if b.modelFails >= b.cfg.ModelFailures {
			b.tripLocked(reason)
		}
	case HalfOpen:
		b.tripLocked(reason)
	}
}

// ModelAccepted records a candidate model passing validation and being
// swapped in, clearing the consecutive model-failure count.
func (b *Breaker) ModelAccepted() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.modelFails = 0
	b.mu.Unlock()
}

// Trip opens the breaker immediately, regardless of failure counts —
// used for failures with no safe retry, like a planner worker panicking
// or a model emitting only degenerate predictions. A no-op when already
// open.
func (b *Breaker) Trip(reason string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != Open {
		b.tripLocked(reason)
	}
}

// tripLocked opens the breaker and arms the cool-down. Callers hold b.mu.
func (b *Breaker) tripLocked(reason string) {
	b.trips++
	b.cooldownLeft = b.cfg.Cooldown
	b.probeOK = 0
	b.regretFails = 0
	b.modelFails = 0
	b.setStateLocked(Open, reason)
}

// setStateLocked changes state, recording the transition at the current
// decision ordinal. Callers hold b.mu.
func (b *Breaker) setStateLocked(to State, reason string) {
	t := Transition{From: b.state, To: to, Reason: reason, Decision: b.decisions}
	b.state = to
	b.transitions = append(b.transitions, t)
	if b.onTransition != nil {
		b.onTransition(t)
	}
}

// State returns the current breaker position (Closed for a nil breaker).
func (b *Breaker) State() State {
	if b == nil {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Decisions returns how many decisions the breaker has clocked.
func (b *Breaker) Decisions() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.decisions
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// Transitions returns a copy of every state change so far, in order —
// the deterministic record fault-script tests compare across runs.
func (b *Breaker) Transitions() []Transition {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Transition(nil), b.transitions...)
}
