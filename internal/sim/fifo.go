package sim

// FIFO is a growable ring of event payloads. A Handler whose events are
// always scheduled in non-decreasing cycle order fires them in push
// order (same-cycle events fire in scheduling order), so it can keep
// each event's payload in a FIFO and pop it on Fire: the k-th firing
// consumes the k-th push. The ring doubles when full and never shrinks,
// so a steady-state simulation pushes and pops without allocating.
type FIFO[T any] struct {
	buf  []T // capacity is zero or a power of two
	head int
	n    int
}

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the head. Popping an empty FIFO panics: it
// means an event fired without its payload.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: pop from empty FIFO")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // drop references for the GC
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Len returns the number of queued payloads.
func (q *FIFO[T]) Len() int { return q.n }

// Cap returns the ring's current capacity (tests).
func (q *FIFO[T]) Cap() int { return len(q.buf) }

func (q *FIFO[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]T, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = buf, 0
}
