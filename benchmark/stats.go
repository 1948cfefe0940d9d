package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs by the
// nearest-rank rule, or 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when the denominator is 0 (an idle layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the process's user+system CPU time so far. The load
// generator runs in this process, so its CPU is included.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeapMB is HeapAlloc after two forced collections: the first frees
// garbage, the second frees what finalizers released.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// cost is what one measured call consumed.
type cost struct {
	secs    float64
	mallocs float64
	bytes   float64
}

// measure runs fn once and reports the heap objects and bytes it
// allocated. The counts are process-wide, so callers keep every other
// goroutine idle while it runs, and secs is not to be trusted: reading
// the counters stops the world, and the call that follows pays for it.
func measure(fn func()) cost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	fn()
	secs := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	return cost{
		secs:    secs,
		mallocs: float64(m1.Mallocs - m0.Mallocs),
		bytes:   float64(m1.TotalAlloc - m0.TotalAlloc),
	}
}

// costs is a sample of measured calls of one stage.
type costs []cost

func (cs costs) secs() []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.secs
	}
	return out
}

func (cs costs) p50us() float64 { return median(cs.secs()) * 1e6 }
func (cs costs) p50ms() float64 { return median(cs.secs()) * 1e3 }
func (cs costs) p99ms() float64 { return percentile(cs.secs(), 99) * 1e3 }

func (cs costs) allocsPerCall() float64 {
	var s float64
	for _, c := range cs {
		s += c.mallocs
	}
	return ratio(s, float64(len(cs)))
}

func (cs costs) kbPerCall() float64 {
	var s float64
	for _, c := range cs {
		s += c.bytes
	}
	return ratio(s/1024, float64(len(cs)))
}
