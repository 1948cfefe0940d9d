package obs

// ring is a fixed-capacity circular buffer that overwrites its oldest
// value once full: the one retention policy behind the trace ring, the
// event journal, the regret window and the drift window. It has no lock;
// each owner serializes access with its own mutex.
type ring[T any] struct {
	buf  []T
	next int
	full bool
}

// newRing creates a ring holding up to n values (n < 1 is clamped to 1).
func newRing[T any](n int) ring[T] {
	return ring[T]{buf: make([]T, max(n, 1))}
}

// push stores v and returns the value it overwrote; evicted is false
// until the ring has filled once.
func (r *ring[T]) push(v T) (old T, evicted bool) {
	old, evicted = r.buf[r.next], r.full
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	return old, evicted
}

// newestFirst copies the stored values, newest first.
func (r *ring[T]) newestFirst() []T {
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]T, n)
	for i := range out {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.buf)
		}
		out[i] = r.buf[idx]
	}
	return out
}
