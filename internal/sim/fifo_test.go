package sim

import "testing"

// TestFIFOWrapAndGrow interleaves pushes and pops so the ring wraps
// before each growth; order must survive every resize.
func TestFIFOWrapAndGrow(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	for round := 1; round <= 6; round++ {
		for i := 0; i < 5*round; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < 3*round; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("round %d: popped %d, want %d", round, got, want)
			}
			want++
		}
	}
	if q.Len() != next-want {
		t.Fatalf("Len %d, want %d", q.Len(), next-want)
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("drain: popped %d, want %d", got, want)
		}
		want++
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on an empty FIFO did not panic")
		}
	}()
	q.Pop()
}

// counter is a pointer Handler, the shape hot-path components use.
type counter struct {
	e     *Engine
	fired []Cycle
}

func (c *counter) Fire() { c.fired = append(c.fired, c.e.Now()) }

// TestScheduleHandlerSharesOrderWithAt: typed handlers and closures go
// through one heap and fire in (cycle, scheduling order).
func TestScheduleHandlerSharesOrderWithAt(t *testing.T) {
	e := NewEngine(1)
	c := &counter{e: e}
	var order []string
	e.Schedule(3, c)
	e.At(3, func() { order = append(order, "closure") })
	e.Schedule(2, c)
	e.Schedule(3, funcHandler(func() { order = append(order, "after") }))
	e.Run(10)
	if len(c.fired) != 2 || c.fired[0] != 2 || c.fired[1] != 3 {
		t.Fatalf("handler fired at %v, want [2 3]", c.fired)
	}
	if len(order) != 2 || order[0] != "closure" || order[1] != "after" {
		t.Fatalf("same-cycle order %v, want [closure after]", order)
	}
}
