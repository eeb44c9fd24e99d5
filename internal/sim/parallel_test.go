package sim

import (
	"sync"
	"testing"
)

// Posting into a mailbox and draining it must preserve post order for
// same-cycle events: the destination engine assigns seq numbers at
// Drain time, so the firing order of a cycle's events is exactly the
// drain (= post) order.
func TestMailboxDrainPreservesPostOrder(t *testing.T) {
	dst := NewEngine(1)
	m := NewMailbox(dst, 4)
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		m.Post(3, funcHandler(func() { fired = append(fired, i) }))
	}
	if m.Len() != 10 {
		t.Fatalf("Len = %d, want 10", m.Len())
	}
	m.Drain()
	if m.Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", m.Len())
	}
	dst.Run(5)
	if len(fired) != 10 {
		t.Fatalf("fired %d events, want 10", len(fired))
	}
	for i, v := range fired {
		if v != i {
			t.Fatalf("fired[%d] = %d, want %d (post order violated)", i, v, i)
		}
	}
}

// Draining two mailboxes into the same engine in a fixed order must
// interleave their same-cycle events in exactly that order, regardless
// of the order the posts happened in.
func TestMailboxFixedDrainOrderDecidesSameCycleOrder(t *testing.T) {
	dst := NewEngine(1)
	a, b := NewMailbox(dst, 0), NewMailbox(dst, 0)
	var fired []string
	// Post into b first: drain order, not post order across mailboxes,
	// must decide the outcome.
	b.Post(2, funcHandler(func() { fired = append(fired, "b0") }))
	a.Post(2, funcHandler(func() { fired = append(fired, "a0") }))
	b.Post(2, funcHandler(func() { fired = append(fired, "b1") }))
	a.Post(2, funcHandler(func() { fired = append(fired, "a1") }))
	a.Drain()
	b.Drain()
	dst.Run(4)
	want := []string{"a0", "a1", "b0", "b1"}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v (drain order must win)", fired, want)
		}
	}
}

// A drained mailbox keeps its backing array but must drop closure
// references; reusing it across windows must not redeliver old events.
func TestMailboxReuseAcrossWindows(t *testing.T) {
	dst := NewEngine(1)
	m := NewMailbox(dst, 1)
	count := 0
	m.Post(1, funcHandler(func() { count++ }))
	m.Drain()
	m.Post(2, funcHandler(func() { count++ }))
	m.Drain()
	dst.Run(4)
	if count != 2 {
		t.Fatalf("count = %d, want 2 (no loss, no redelivery)", count)
	}
}

// Parallel must advance every engine in windows of exactly the given
// width, with the barrier seeing each window boundary once, in order,
// with every engine parked at that boundary.
func TestParallelWindowBoundaries(t *testing.T) {
	engines := NewEngineGroup(1, 3)
	var boundaries []Cycle
	p := NewParallel(engines, 4, func(now Cycle) {
		boundaries = append(boundaries, now)
		for i, e := range engines {
			if e.Now() != now {
				t.Errorf("engine %d at %d during barrier(%d)", i, e.Now(), now)
			}
		}
	})
	p.Run(10)
	want := []Cycle{4, 8, 10} // last window truncated to until
	if len(boundaries) != len(want) {
		t.Fatalf("boundaries = %v, want %v", boundaries, want)
	}
	for i := range want {
		if boundaries[i] != want[i] {
			t.Fatalf("boundaries = %v, want %v", boundaries, want)
		}
	}
	if p.Now() != 10 {
		t.Fatalf("Now = %d, want 10", p.Now())
	}
	// Events scheduled exactly at the stop cycle must not have fired
	// (Engine.Run's contract: until is exclusive), so a resumed run
	// picks them up.
	fired := false
	engines[0].At(10, func() { fired = true })
	if fired {
		t.Fatal("event at the stop cycle fired early")
	}
	p.Run(11)
	if !fired {
		t.Fatal("event at the stop cycle lost after resume")
	}
}

// The barrier may post cross-shard events via mailboxes; an event posted
// during window [T, T+W) for cycle T+W (the minimum conservative
// lookahead) must fire on the destination in the very next window.
func TestParallelCrossShardDeliveryAtLookahead(t *testing.T) {
	engines := NewEngineGroup(7, 2)
	const window = Cycle(3)
	box := NewMailbox(engines[1], 1)
	var mu sync.Mutex // engines tick on different workers; the test's log needs its own lock
	var got []Cycle
	// Shard 0 posts one event per cycle, due exactly one window later.
	engines[0].Register(PhasePost, func(now Cycle) {
		box.Post(now+window, funcHandler(func() {
			mu.Lock()
			got = append(got, engines[1].Now())
			mu.Unlock()
		}))
	})
	p := NewParallel(engines, window, func(Cycle) { box.Drain() })
	p.Run(9)
	// Cycles 0..8 each post one event due at now+3; those due before 9
	// (posted in cycles 0..5) must have fired, in cycle order.
	if len(got) != 6 {
		t.Fatalf("fired %d cross-shard events, want 6: %v", len(got), got)
	}
	for i, c := range got {
		if c != Cycle(i)+window {
			t.Fatalf("event %d fired at %d, want %d", i, c, Cycle(i)+window)
		}
	}
}

// Engines from NewEngineGroup share one RNG derivation counter: the
// stream a component receives depends only on the global order of RNG()
// calls, not on which shard's engine served it. This is what keeps a
// partitioned build's draws identical to the serial build's.
func TestEngineGroupSharedRNGCounter(t *testing.T) {
	serial := NewEngine(42)
	a := serial.RNG().Int63()
	b := serial.RNG().Int63()

	group := NewEngineGroup(42, 2)
	ga := group[0].RNG().Int63()
	gb := group[1].RNG().Int63() // second draw, even though a different engine

	if ga != a || gb != b {
		t.Fatalf("group draws (%d, %d) differ from serial draws (%d, %d)", ga, gb, a, b)
	}
}
