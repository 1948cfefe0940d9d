package guard

import (
	"reflect"
	"testing"
)

// testBreakerCfg is a small, fast script configuration: two model
// failures or three regret failures trip; four decisions of cool-down;
// two probes close.
func testBreakerCfg() BreakerConfig {
	return BreakerConfig{
		Enabled:        true,
		ModelFailures:  2,
		RegretFailures: 3,
		RegretRatio:    4,
		Cooldown:       4,
		Probes:         2,
	}
}

func TestBreakerNilSafe(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Fatal("nil breaker must allow every decision")
	}
	b.ReportOutcome(true)
	b.ModelFailure("x")
	b.ModelAccepted()
	b.Trip("x")
	if b.State() != Closed || b.Decisions() != 0 || b.Trips() != 0 || b.Transitions() != nil {
		t.Fatal("nil breaker accessors must report the zero state")
	}
}

func TestBreakerDefaults(t *testing.T) {
	c := BreakerConfig{Enabled: true}.WithDefaults()
	if c.ModelFailures != 3 || c.RegretFailures != 5 || c.RegretRatio != 4 ||
		c.Cooldown != 32 || c.Probes != 3 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
}

// TestBreakerRegretTrip walks the full lifecycle on the decision clock:
// consecutive regrets trip, the cool-down denies exactly Cooldown
// decisions, the next decision is the first half-open probe, and enough
// probe successes close the breaker. The transition record is pinned
// exactly — this is the determinism contract the chaos harness relies on.
func TestBreakerRegretTrip(t *testing.T) {
	b := NewBreaker(testBreakerCfg(), nil)

	// Three consecutive regrets trip; a success in between resets.
	b.Allow()
	b.ReportOutcome(true)
	b.Allow()
	b.ReportOutcome(true)
	b.Allow()
	b.ReportOutcome(false) // resets the consecutive count
	for i := 0; i < 3; i++ {
		b.Allow()
		b.ReportOutcome(true)
	}
	if b.State() != Open {
		t.Fatalf("state = %v after 3 consecutive regrets, want Open", b.State())
	}

	// Exactly Cooldown decisions are denied.
	for i := 0; i < 4; i++ {
		if b.Allow() {
			t.Fatalf("cool-down decision %d allowed", i)
		}
	}
	// The next decision flips to half-open and serves as the first probe.
	if !b.Allow() {
		t.Fatal("first post-cooldown decision must be allowed as a probe")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v after cool-down, want HalfOpen", b.State())
	}
	b.ReportOutcome(false)
	b.Allow()
	b.ReportOutcome(false)
	if b.State() != Closed {
		t.Fatalf("state = %v after %d probe successes, want Closed", b.State(), 2)
	}

	want := []Transition{
		{From: Closed, To: Open, Reason: "regret", Decision: 6},
		{From: Open, To: HalfOpen, Reason: "cooldown-elapsed", Decision: 11},
		{From: HalfOpen, To: Closed, Reason: "probes-passed", Decision: 12},
	}
	if got := b.Transitions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("transitions = %+v, want %+v", got, want)
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}
}

// TestBreakerProbeFailureReopens pins the half-open → open path: one
// regretted probe re-trips immediately, rearming the full cool-down.
func TestBreakerProbeFailureReopens(t *testing.T) {
	b := NewBreaker(testBreakerCfg(), nil)
	b.Trip("forced")
	for i := 0; i < 4; i++ {
		b.Allow()
	}
	b.Allow() // half-open probe
	b.ReportOutcome(true)
	if b.State() != Open {
		t.Fatalf("state = %v after failed probe, want Open", b.State())
	}
	if b.Trips() != 2 {
		t.Fatalf("trips = %d, want 2", b.Trips())
	}
	// The cool-down is rearmed in full.
	for i := 0; i < 4; i++ {
		if b.Allow() {
			t.Fatalf("rearmed cool-down decision %d allowed", i)
		}
	}
	if !b.Allow() || b.State() != HalfOpen {
		t.Fatal("breaker must go half-open again after the rearmed cool-down")
	}
}

// TestBreakerModelFailures: consecutive training-side failures trip a
// closed breaker; an accepted model resets the count; any model failure
// while half-open reopens.
func TestBreakerModelFailures(t *testing.T) {
	b := NewBreaker(testBreakerCfg(), nil)
	b.ModelFailure("candidate-rejected")
	b.ModelAccepted() // resets
	b.ModelFailure("candidate-rejected")
	if b.State() != Closed {
		t.Fatalf("state = %v after non-consecutive failures, want Closed", b.State())
	}
	b.ModelFailure("trainer-panic")
	if b.State() != Open {
		t.Fatalf("state = %v after 2 consecutive model failures, want Open", b.State())
	}

	for i := 0; i < 4; i++ {
		b.Allow()
	}
	b.Allow() // half-open
	b.ModelFailure("trainer-panic")
	if b.State() != Open {
		t.Fatalf("state = %v after half-open model failure, want Open", b.State())
	}
}

// TestBreakerTripIdempotentWhileOpen: Trip on an open breaker is a no-op,
// so concurrent trip sources (parallel planner workers panicking on the
// same query) record one transition, not one per worker.
func TestBreakerTripIdempotentWhileOpen(t *testing.T) {
	b := NewBreaker(testBreakerCfg(), nil)
	b.Trip("planner-panic")
	b.Trip("planner-panic")
	b.Trip("degenerate-predictions")
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1 (Trip must no-op while open)", b.Trips())
	}
	if n := len(b.Transitions()); n != 1 {
		t.Fatalf("transitions = %d, want 1", n)
	}
}

// TestBreakerRegretIgnoredWhileOpen: outcomes reported for decisions that
// were already denied (queued before the trip) must not disturb the
// open-state counters.
func TestBreakerRegretIgnoredWhileOpen(t *testing.T) {
	b := NewBreaker(testBreakerCfg(), nil)
	b.Trip("forced")
	b.ReportOutcome(true)
	b.ReportOutcome(false)
	if b.State() != Open || b.Trips() != 1 {
		t.Fatalf("open breaker disturbed by outcome reports: state=%v trips=%d", b.State(), b.Trips())
	}
}

func TestBreakerTransitionCallback(t *testing.T) {
	var seen []Transition
	b := NewBreaker(testBreakerCfg(), func(tr Transition) { seen = append(seen, tr) })
	b.Trip("forced")
	for i := 0; i < 5; i++ {
		b.Allow()
	}
	if len(seen) != 2 || seen[0].To != Open || seen[1].To != HalfOpen {
		t.Fatalf("callback saw %+v, want open then half-open", seen)
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{Closed: "closed", Open: "open", HalfOpen: "half-open"}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}
