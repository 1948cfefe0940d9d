// Package obs is the observability layer: a dependency-free metrics
// registry (atomic counters, gauges, and fixed-bucket histograms) with
// Prometheus text-format exposition, plus per-query decision traces kept
// in a bounded ring buffer and served as JSON. It exists to make Bao's
// practicality claims measurable: bounded optimization overhead, tail
// latency, and the observe→retrain loop that catches regressions.
//
// Every metric handle is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, or *CounterVec are no-ops, so instrumented code paths need
// no branching when observability is disabled (see Disabled).
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing float64 value (Prometheus
// counters are floats so they can accumulate seconds as well as events).
type Counter struct {
	bits atomic.Uint64
	name string
	help string
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add accumulates v. Negative and NaN deltas are ignored: counters only
// go up, and one NaN would stick in the total for good.
func (c *Counter) Add(v float64) {
	if c == nil || !(v >= 0) {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
	name string
	help string
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add accumulates a (possibly negative) delta.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, v)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Exemplar links a recent histogram observation back to the decision
// trace that produced it (OpenMetrics-style; rendered as a comment line
// so the 0.0.4 text exposition stays parseable by strict scrapers).
type Exemplar struct {
	Value     float64 `json:"value"`
	TraceID   uint64  `json:"trace_id,omitempty"`
	RequestID string  `json:"request_id,omitempty"`
}

// Histogram counts observations into fixed upper-bound buckets, plus a
// running sum and count (Prometheus histogram semantics).
type Histogram struct {
	name    string
	help    string
	bounds  []float64 // sorted upper bounds; +Inf bucket is implicit
	counts  []atomic.Int64
	sumBits atomic.Uint64
	count   atomic.Int64
	ex      atomic.Pointer[Exemplar]
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	addFloat(&h.sumBits, v)
	h.count.Add(1)
}

// ObserveEx records one value and, when the observation came from an
// identified decision, stores it as the histogram's exemplar.
func (h *Histogram) ObserveEx(v float64, traceID uint64, requestID string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID != 0 || requestID != "" {
		h.ex.Store(&Exemplar{Value: v, TraceID: traceID, RequestID: requestID})
	}
}

// Exemplar returns the most recent identified observation (nil when none
// was recorded).
func (h *Histogram) Exemplar() *Exemplar {
	if h == nil {
		return nil
	}
	return h.ex.Load()
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// snapshotBuckets returns cumulative counts per upper bound (the last
// entry is the +Inf bucket, equal to Count up to racing observations).
func (h *Histogram) snapshotBuckets() []int64 {
	out := make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// CounterVec is a family of counters partitioned by one label.
type CounterVec struct {
	name  string
	help  string
	label string
	mu    sync.RWMutex
	kids  map[string]*Counter
}

// With returns the counter for a label value, creating it on first use.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	c := v.kids[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.kids[value]; c == nil {
		c = &Counter{name: v.name}
		v.kids[value] = c
	}
	return c
}

// Values returns a copy of the label → total map.
func (v *CounterVec) Values() map[string]float64 {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]float64, len(v.kids))
	for k, c := range v.kids {
		out[k] = c.Value()
	}
	return out
}

// HistogramVec is a family of histograms partitioned by one label, all
// sharing the same bucket bounds (selection latency by stage,
// prediction-calibration ratios by arm).
type HistogramVec struct {
	name   string
	help   string
	label  string
	bounds []float64
	mu     sync.RWMutex
	kids   map[string]*Histogram
}

// With returns the histogram for a label value, creating it on first use.
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	h := v.kids[value]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.kids[value]; h == nil {
		h = &Histogram{name: v.name, bounds: v.bounds}
		h.counts = make([]atomic.Int64, len(v.bounds)+1)
		v.kids[value] = h
	}
	return h
}

// children returns a copy of the label → histogram map.
func (v *HistogramVec) children() map[string]*Histogram {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]*Histogram, len(v.kids))
	for k, h := range v.kids {
		out[k] = h
	}
	return out
}

// addFloat atomically adds v to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// LatencyBuckets are the fixed histogram bounds (seconds) shared by every
// latency metric, spanning 10µs to 10s — the range the simulated clock and
// the real planning/training wall times both occupy.
func LatencyBuckets() []float64 {
	return []float64{
		1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// RatioBuckets are the bounds for the prediction-calibration histogram
// (observed/predicted). Near 1 means the model is calibrated; the high
// buckets count the gross mispredictions that trigger early retraining.
func RatioBuckets() []float64 {
	return []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.1, 1.25, 1.5, 2, 4, 8, 16}
}

// CountBuckets are power-of-two bounds for small-count histograms (batch
// sizes, fan-outs): 1 up through 256.
func CountBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
}
