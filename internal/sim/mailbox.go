package sim

// Mailbox carries events across a shard boundary in a partitioned run.
// A component owned by one engine that needs to schedule work on a
// different engine must not call the far engine's At directly — two
// worker goroutines would race on the far heap, and the resulting seq
// numbers would depend on goroutine interleaving. Instead it Posts the
// event into a mailbox during its window, and the barrier (a single
// goroutine, with every worker parked) Drains each mailbox into its
// destination engine.
//
// Determinism: Post appends in call order, so one mailbox preserves the
// sender's program order (per-link FIFO). The barrier drains all
// mailboxes in a fixed order (the network uses dense half-id order), so
// the seq numbers assigned by the destination engine — and therefore
// the firing order of same-cycle events — are a pure function of the
// simulation state, never of the Go scheduler.
//
// Entries are typed handlers, not closures. A sender whose events carry
// payloads keeps them in storage it owns during the window and
// registers a handover (SetHandover) that moves them to receiver-owned
// storage at the barrier; the posted handler pops them from there when
// it fires. No payload is ever shared by two shards mid-window.
type Mailbox struct {
	dst      *Engine
	entries  []mailEntry
	handover func()
}

type mailEntry struct {
	at Cycle
	h  Handler
}

// NewMailbox builds a mailbox delivering into dst, with room for
// capHint pending events before the first growth.
func NewMailbox(dst *Engine, capHint int) *Mailbox {
	if dst == nil {
		panic("sim: mailbox needs a destination engine")
	}
	if capHint < 0 {
		capHint = 0
	}
	return &Mailbox{dst: dst, entries: make([]mailEntry, 0, capHint)}
}

// SetHandover installs fn to run at every Drain, on the barrier
// goroutine with every shard parked: the one point where the sender's
// window storage may be handed to the receiving shard. Wiring-time
// only; a mailbox has at most one handover.
func (m *Mailbox) SetHandover(fn func()) {
	if m.handover != nil {
		panic("sim: mailbox handover already set")
	}
	m.handover = fn
}

// Post records h for firing at cycle at on the destination engine.
// Called by the owning shard's worker during its window; the conservative
// lookahead guarantees at is never in the destination's past by the time
// the barrier drains it.
func (m *Mailbox) Post(at Cycle, h Handler) {
	m.entries = append(m.entries, mailEntry{at: at, h: h})
}

// Drain runs the handover, schedules every posted event on the
// destination engine in post order and empties the mailbox (keeping
// its capacity). Only the barrier goroutine may call this, after all
// workers have parked.
func (m *Mailbox) Drain() {
	if m.handover != nil {
		m.handover()
	}
	for i := range m.entries {
		m.dst.Schedule(m.entries[i].at, m.entries[i].h)
		m.entries[i] = mailEntry{} // drop the handler reference for the GC
	}
	m.entries = m.entries[:0]
}

// Len reports the number of undelivered events (tests, diagnostics).
func (m *Mailbox) Len() int { return len(m.entries) }

// Dst returns the destination engine.
func (m *Mailbox) Dst() *Engine { return m.dst }
