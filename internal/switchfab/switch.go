// Package switchfab implements the input-queued switch of the paper's
// simulation model (Table I): per-input-port RAM organised by a
// pluggable queue discipline (1Q, VOQsw, VOQnet, DBBM or the
// FBICM/CCFIT NFQ+CFQ isolation unit), an iSLIP-scheduled crossbar,
// virtual cut-through forwarding with credit-based flow control, output
// CAMs for congestion-information propagation, and FECN marking at
// output ports in the congestion state.
package switchfab

import (
	"fmt"
	"math"

	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// Stats aggregates switch-level counters for the evaluation.
type Stats struct {
	Forwarded      int
	ForwardedBytes int
	Marked         int
	CreditStalls   int // arbitration requests suppressed by missing credits
}

// Switch is one input-queued switch.
type Switch struct {
	eng    *sim.Engine
	p      *core.Params
	id     int
	name   string
	nports int
	xbar   int // crossbar bytes/cycle per port
	route  func(dest int) int
	// lookahead maps (local output port, dest) to the output port the
	// packet will request at the neighbor (OBQA queue assignment).
	lookahead func(out, dest int) int

	in    []*inPort
	out   []*outPort
	islip *arbiter.ISlip
	stats Stats

	// stalledUntil is the fault injector's arbitration freeze: while
	// now < stalledUntil the switch skips arbitration entirely (queues
	// fill, credits stop flowing downstream) — the scripted model of a
	// wedged scheduler. Zero (the default) never stalls.
	stalledUntil sim.Cycle

	// per-cycle scratch: candidate request per (input, output), valid
	// where islip.Requested(input, output) holds
	cand [][]core.Request

	// iso[i] is input port i's isolation unit (nil under the other
	// disciplines): the deadline and catch-up hooks live there.
	iso []*core.IsolationUnit

	// Tick handles and the sleep contract (DESIGN.md, hot path): a tick
	// that changes no state sleeps the switch until the earliest cycle
	// a time-dependent predicate can flip (deadline) or an input wakes
	// it; the elided cycles' per-cycle counters are caught up on wake.
	hPost, hArb, hUpd *sim.TickerHandle
	// changes counts this cycle's state changes made by the ticks
	// themselves (reset in post, tested in update).
	changes int
	// stallMark is stats.CreditStalls when this cycle's ticks began.
	stallMark int
	asleep    bool
	// sleptAt is the no-op cycle every elided cycle repeats; idleStalls
	// its credit-stall count; settled the last elided cycle accounted.
	sleptAt, settled sim.Cycle
	idleStalls       int
	// wakeAt is the latest scheduled deadline wake-up (pending while it
	// lies after now).
	wakeAt sim.Cycle
}

// never is the deadline of a switch with no time-dependent predicate.
const never = sim.Cycle(math.MaxInt64)

type inPort struct {
	s         *Switch
	idx       int
	disc      core.QDisc
	busyUntil sim.Cycle
	rr        *arbiter.RoundRobin // among this port's queues for one output
	reqs      []core.Request      // per-cycle scratch

	// The crossbar transfer in flight from this port. A port starts a
	// new transfer only once busyUntil has passed, and the completion
	// fires before that cycle's arbitration, so there is at most one:
	// the port itself is the completion event's target (Fire).
	xferOut *outPort
	xferPkt staged
}

type outPort struct {
	s       *Switch
	idx     int
	tx      *link.Half // nil when the port is unconnected
	credits *core.CreditPool
	cam     *core.OutCAM
	mark    *core.MarkState
	// Output stage: a small buffer decoupling the crossbar (which can
	// run faster than the link, Table I: 5 GB/s crossbar over 2.5 GB/s
	// links in Config #1) from link serialization. inflight counts
	// crossbar transfers that have started but not yet landed here;
	// inflightBytes mirrors it in bytes for the conservation ledger.
	stage         []staged
	inflight      int
	inflightBytes int
}

type staged struct {
	p   *pkt.Packet
	cfq int
}

// stageCap bounds staged + in-flight packets per output port.
const stageCap = 2

// New builds a switch with nports bidirectional ports. routeFn maps a
// destination endpoint to the local output port. numEndpoints sizes
// VOQnet disciplines. xbarBPC is the crossbar bandwidth in bytes/cycle
// per port (Table I "Crossbar BW"); it bounds how fast a packet moves
// from an input queue to an output stage and therefore how much
// aggregate traffic one input port can forward.
func New(eng *sim.Engine, id int, name string, nports int, p *core.Params, routeFn func(int) int, numEndpoints, xbarBPC int) *Switch {
	if nports <= 0 {
		panic("switchfab: switch needs ports")
	}
	if xbarBPC <= 0 {
		panic("switchfab: crossbar bandwidth must be positive")
	}
	s := &Switch{
		eng:    eng,
		p:      p,
		id:     id,
		name:   name,
		nports: nports,
		xbar:   xbarBPC,
		route:  routeFn,
		islip:  arbiter.NewISlip(nports, nports, p.ISlipIters),
	}
	s.in = make([]*inPort, nports)
	s.out = make([]*outPort, nports)
	s.iso = make([]*core.IsolationUnit, nports)
	for i := 0; i < nports; i++ {
		ip := &inPort{s: s, idx: i}
		ip.disc = core.NewQDisc(p, portEnv{s: s, port: i}, nports, numEndpoints)
		ip.rr = arbiter.NewRoundRobin(ip.disc.QueueCount())
		if iso, ok := ip.disc.(*core.IsolationUnit); ok {
			iso.SetTraceLabel(fmt.Sprintf("%s:p%d", name, i))
			iso.TrackChanges(&s.changes)
			s.iso[i] = iso
		}
		s.in[i] = ip
		s.out[i] = &outPort{
			s:    s,
			idx:  i,
			cam:  core.NewOutCAM(p.NumCFQs),
			mark: core.NewMarkState(p, eng.RNG(), eng, fmt.Sprintf("%s:p%d", name, i)),
		}
	}
	s.cand = make([][]core.Request, nports)
	for i := range s.cand {
		s.cand[i] = make([]core.Request, nports)
	}
	s.hPost = eng.AddTicker(sim.PhasePost, sim.TickerFunc(s.post))
	s.hArb = eng.AddTicker(sim.PhaseArbitrate, sim.TickerFunc(s.arbitrate))
	s.hUpd = eng.AddTicker(sim.PhaseUpdate, sim.TickerFunc(s.update))
	return s
}

// wake puts a sleeping switch back on the engine's active lists,
// first accounting the cycles it slept through. Every external mutator
// of switch state (arrival, crossbar landing, control message, credit
// refund, stall) calls it before mutating.
func (s *Switch) wake() {
	if !s.asleep {
		return
	}
	s.CatchUp(s.eng.Now() - 1)
	s.asleep = false
	s.hPost.Wake()
	s.hArb.Wake()
	s.hUpd.Wake()
}

// Fire implements sim.Handler: a scheduled deadline wake-up. A stale
// one (the switch woke earlier for another reason) at worst costs one
// no-op tick.
func (s *Switch) Fire() { s.wake() }

// CatchUp accounts the cycles a sleeping switch has elided, through
// cycle `through`, exactly as ticking them would have: each repeated
// the no-op cycle it fell asleep in, so it added that cycle's credit
// stalls, repeated any lazy-allocation CAM exhaustion, and kept every
// non-empty CFQ's LastActive current. Wake-ups call it; so do readers
// of counters or CAM lines while the switch may be asleep (end of
// Network.Run, the invariant checker). It is a no-op on an awake
// switch and never moves backwards.
func (s *Switch) CatchUp(through sim.Cycle) {
	k := through - s.settled
	if !s.asleep || k <= 0 {
		return
	}
	s.stats.CreditStalls += int(k) * s.idleStalls
	for _, u := range s.iso {
		if u != nil {
			u.CatchUp(s.sleptAt, through, int(k))
		}
	}
	s.settled = through
}

// sleep ends a tick that changed nothing: unless something can change
// next cycle, the switch sleeps and schedules one wake-up at its
// deadline (none when nothing time-dependent is pending, in which case
// only an input wakes it).
func (s *Switch) sleep(now sim.Cycle) {
	at := s.deadline(now)
	if at == now+1 {
		return
	}
	s.hPost.Sleep()
	s.hArb.Sleep()
	s.hUpd.Sleep()
	s.asleep = true
	s.sleptAt, s.settled = now, now
	s.idleStalls = s.stats.CreditStalls - s.stallMark
	if at != never && (s.wakeAt <= now || at < s.wakeAt) {
		s.wakeAt = at
		s.eng.Schedule(at, s)
	}
}

// deadline returns the earliest cycle after the no-op cycle now at
// which a tick can act without new input: a busy link under a staged
// packet freeing, the end of a stall, or an isolation unit's detection
// retry or hold-down expiry (never when none). An input port whose
// crossbar is busy needs no deadline: its transfer lands, and wakes the
// switch, in the very cycle the port may request again. A staged packet
// on a downed link keeps the switch awake: a link coming back up does
// not wake it.
func (s *Switch) deadline(now sim.Cycle) sim.Cycle {
	at := never
	if s.stalledUntil > now {
		at = s.stalledUntil
	}
	for _, u := range s.iso {
		if u != nil {
			at = u.NextChange(now, at)
		}
	}
	for _, op := range s.out {
		if len(op.stage) == 0 {
			continue
		}
		if op.tx.Down() {
			return now + 1
		}
		if t := op.tx.FreeAt(); t > now && t < at {
			at = t
		}
	}
	return at
}

// ID returns the switch's device id.
func (s *Switch) ID() int { return s.id }

// Name returns the diagnostic name.
func (s *Switch) Name() string { return s.name }

// Stats returns the switch counters.
func (s *Switch) Stats() *Stats { return &s.stats }

// InputDisc exposes port i's queue discipline (diagnostics, tests).
func (s *Switch) InputDisc(i int) core.QDisc { return s.in[i].disc }

// OutCAM exposes port i's output CAM (diagnostics, tests).
func (s *Switch) OutCAM(i int) *core.OutCAM { return s.out[i].cam }

// MarkState exposes port i's congestion/marking state (diagnostics).
func (s *Switch) MarkState(i int) *core.MarkState { return s.out[i].mark }

// Credits returns output port i's credit balance toward dest (tests).
func (s *Switch) Credits(i, dest int) int { return s.out[i].credits.Avail(dest) }

// AttachLink wires port i: tx is the transmit direction toward the
// neighbor, credits the pool mirroring the neighbor's receive buffers.
func (s *Switch) AttachLink(i int, tx *link.Half, credits *core.CreditPool) {
	if s.out[i].tx != nil {
		panic(fmt.Sprintf("switchfab: %s port %d already attached", s.name, i))
	}
	s.out[i].tx = tx
	s.out[i].credits = credits
}

// SetLookahead installs the next-hop routing oracle used by the OBQA
// discipline. Must be called before traffic arrives; without it OBQA
// degenerates to a single queue.
func (s *Switch) SetLookahead(fn func(out, dest int) int) { s.lookahead = fn }

// PacketReceiver returns the sink for packets arriving at port i.
func (s *Switch) PacketReceiver(i int) link.PacketReceiver { return s.in[i] }

// ControlReceiver returns the sink for control arriving at port i.
func (s *Switch) ControlReceiver(i int) link.ControlReceiver { return s.out[i] }

// post runs the per-port post-processing phase. It opens the cycle's
// change count, which update tests.
func (s *Switch) post(now sim.Cycle) {
	s.changes = 0
	s.stallMark = s.stats.CreditStalls
	for _, ip := range s.in {
		ip.disc.Post(now)
	}
}

// update runs the per-port housekeeping phase, then sleeps the switch
// when the cycle's ticks changed nothing.
func (s *Switch) update(now sim.Cycle) {
	for _, ip := range s.in {
		ip.disc.Update(now)
	}
	if s.changes == 0 {
		s.sleep(now)
	}
}

// arbitrate drains output stages onto their links, then collects
// eligible requests, runs iSLIP, and starts the granted crossbar
// transfers.
func (s *Switch) arbitrate(now sim.Cycle) {
	if now < s.stalledUntil {
		return
	}
	for _, op := range s.out {
		op.drain(now)
	}
	anyReq := false
	for i, ip := range s.in {
		if ip.busyUntil > now || ip.disc.UsedBytes() == 0 {
			continue
		}
		ip.reqs = ip.disc.Requests(now, ip.reqs[:0])
		for _, r := range ip.reqs {
			op := s.out[r.Out]
			if op.tx == nil || len(op.stage)+op.inflight >= stageCap {
				continue
			}
			if op.credits.Avail(r.Pkt.Dst) < r.Pkt.Size {
				s.stats.CreditStalls++
				continue
			}
			// Keep the strongest candidate per (input, output):
			// priority first, then this input's queue round-robin. A
			// replacement never drops priority, so OR-ing it into the
			// request's priority bit tracks the final candidate's.
			if !s.islip.Requested(i, r.Out) || s.better(ip, r, s.cand[i][r.Out]) {
				s.cand[i][r.Out] = r
				s.islip.Request(i, r.Out, r.Priority)
			}
			anyReq = true
		}
	}
	if !anyReq {
		return
	}
	match := s.islip.Match()
	for i, o := range match {
		if o == -1 {
			continue
		}
		s.start(now, s.in[i], s.out[o], s.cand[i][o])
	}
	// A transfer completing this cycle may have landed in an idle
	// stage; push it out without waiting a cycle.
	for _, op := range s.out {
		op.drain(now)
	}
}

// drain puts the next staged packet on the wire if the link is idle.
func (op *outPort) drain(now sim.Cycle) {
	if op.tx == nil || len(op.stage) == 0 || !op.tx.Free(now) {
		return
	}
	st := op.stage[0]
	copy(op.stage, op.stage[1:])
	op.stage = op.stage[:len(op.stage)-1]
	op.tx.Send(now, st.p, st.cfq)
	op.s.changes++
}

// better reports whether request a should replace b as input ip's
// candidate for one output: priority first, then the port's queue
// round-robin order (fairness between the NFQ and CFQs sharing an
// output, without advancing the pointer until a queue is served).
func (s *Switch) better(ip *inPort, a, b core.Request) bool {
	if a.Priority != b.Priority {
		return a.Priority
	}
	return ip.rr.Closer(a.QID, b.QID)
}

// start launches one granted crossbar transfer: the packet leaves the
// input queue, crosses the crossbar in size/xbar cycles, and lands in
// the output stage for link serialization.
func (s *Switch) start(now sim.Cycle, ip *inPort, op *outPort, r core.Request) {
	p := ip.disc.Pop(r.QID)
	if p != r.Pkt {
		panic(fmt.Sprintf("switchfab: %s popped %v, granted %v", s.name, p, r.Pkt))
	}
	ip.rr.Served(r.QID)
	s.changes++
	op.credits.Take(p.Dst, p.Size)
	if op.mark.MaybeMark(p) {
		s.stats.Marked++
	}
	xfer := sim.Cycle((p.Size + s.xbar - 1) / s.xbar)
	ip.busyUntil = now + xfer
	op.inflight++
	op.inflightBytes += p.Size
	ip.xferOut = op
	ip.xferPkt.p, ip.xferPkt.cfq = p, r.DirectCFQ
	s.eng.Schedule(now+xfer, ip)
	s.stats.Forwarded++
	s.stats.ForwardedBytes += p.Size
	// The packet left this input port's RAM: return credit upstream.
	// Port ip.idx's transmit half reaches the upstream neighbor.
	if up := s.out[ip.idx].tx; up != nil {
		//lint:ignore hotpath-alloc link.Control is a value struct passed by value; no heap allocation
		up.SendControl(now, link.Control{Kind: link.Credit, Bytes: p.Size, Dest: p.Dst})
	}
}

// Stall freezes arbitration (grants, drains, crossbar launches) for d
// cycles from now — the fault model of a wedged scheduler. Overlapping
// stalls extend to the farthest horizon. Arrivals are still admitted
// (they only queue), so buffers fill and backpressure propagates
// upstream exactly as a real hung switch would cause.
func (s *Switch) Stall(d sim.Cycle) {
	s.wake()
	if until := s.eng.Now() + d; until > s.stalledUntil {
		s.stalledUntil = until
	}
}

// StalledUntil returns the cycle arbitration resumes (0 = never stalled).
func (s *Switch) StalledUntil() sim.Cycle { return s.stalledUntil }

// NumPorts returns the port count.
func (s *Switch) NumPorts() int { return s.nports }

// TxHalf returns port i's transmit direction (nil when unconnected).
func (s *Switch) TxHalf(i int) *link.Half { return s.out[i].tx }

// CreditPoolAt returns port i's credit pool toward its neighbor (nil
// when unconnected) — the invariant checker bounds it by capacity.
func (s *Switch) CreditPoolAt(i int) *core.CreditPool { return s.out[i].credits }

// BufferedBytes returns every byte the switch currently holds: input
// RAM, crossbar transfers in flight, and output stages. This is the
// switch's term in the packet-conservation ledger.
func (s *Switch) BufferedBytes() int {
	b := 0
	for _, ip := range s.in {
		b += ip.disc.UsedBytes()
	}
	for _, op := range s.out {
		b += op.inflightBytes
		for _, st := range op.stage {
			b += st.p.Size
		}
	}
	return b
}

// DescribeBlocked reports, one line per queued input port, why its
// arbitration requests cannot be granted right now — the heart of the
// watchdog's deadlock diagnostic. An empty slice means nothing is
// queued anywhere on the switch.
func (s *Switch) DescribeBlocked(now sim.Cycle) []string {
	var out []string
	stalled := ""
	if now < s.stalledUntil {
		stalled = fmt.Sprintf(" [switch stalled until %d]", s.stalledUntil)
	}
	for i, ip := range s.in {
		if ip.disc.UsedBytes() == 0 {
			continue
		}
		line := fmt.Sprintf("%s p%d in: %dB queued%s", s.name, i, ip.disc.UsedBytes(), stalled)
		if ip.busyUntil > now {
			line += fmt.Sprintf("; crossbar busy until %d", ip.busyUntil)
		}
		ip.reqs = ip.disc.Requests(now, ip.reqs[:0])
		for _, r := range ip.reqs {
			line += "; " + s.describeRequest(now, r)
		}
		if len(ip.reqs) == 0 {
			line += "; no eligible request (queues stopped or heads gated)"
		}
		out = append(out, line)
	}
	return out
}

// describeRequest explains one candidate's fate against its output.
func (s *Switch) describeRequest(now sim.Cycle, r core.Request) string {
	op := s.out[r.Out]
	head := fmt.Sprintf("head %s wants out%d:", r.Pkt, r.Out)
	switch {
	case op.tx == nil:
		return head + " output unconnected"
	case len(op.stage)+op.inflight >= stageCap:
		return head + " output stage full"
	case op.credits.Avail(r.Pkt.Dst) < r.Pkt.Size:
		return fmt.Sprintf("%s no credits (have %d, need %d)", head, op.credits.Avail(r.Pkt.Dst), r.Pkt.Size)
	case op.tx.Down():
		return head + " link down"
	case !op.tx.Free(now):
		return fmt.Sprintf("%s link busy until %d", head, op.tx.FreeAt())
	default:
		return head + " grantable"
	}
}

// Fire implements sim.Handler: the port's crossbar transfer lands in
// its output stage.
func (ip *inPort) Fire() {
	ip.s.wake()
	op, st := ip.xferOut, ip.xferPkt
	ip.xferOut, ip.xferPkt = nil, staged{}
	op.inflight--
	op.inflightBytes -= st.p.Size
	op.stage = append(op.stage, st)
}

// ReceivePacket implements link.PacketReceiver for an input port.
func (ip *inPort) ReceivePacket(p *pkt.Packet, cfq int) {
	ip.s.wake()
	ip.disc.Enqueue(p, cfq)
}

// ReceiveControl implements link.ControlReceiver for an output port:
// credits (returned by the neighbor, or refunded for a packet a link
// flap dropped) and the downstream CFQ protocol.
func (op *outPort) ReceiveControl(m link.Control) {
	op.s.wake()
	if m.Kind == link.Credit {
		op.credits.Give(m.Dest, m.Bytes)
		return
	}
	op.cam.Handle(m)
	if m.Kind == link.CFQAlloc {
		// The congested point is now known to be at least one hop
		// below: input CFQs feeding this output stop being tree roots.
		for _, iso := range op.s.iso {
			if iso != nil {
				iso.DemoteRoot(op.idx, m.Dests)
			}
		}
	}
}

// portEnv adapts a switch port to core.PortEnv.
type portEnv struct {
	s    *Switch
	port int
}

func (e portEnv) Route(dest int) int { return e.s.route(dest) }

func (e portEnv) OutLine(out, dest int) (bool, int, bool) {
	return e.s.out[out].cam.Lookup(dest)
}

func (e portEnv) OutCredits(out, dest int) int {
	op := e.s.out[out]
	if op.tx == nil {
		return 0
	}
	return op.credits.Avail(dest)
}

func (e portEnv) NotifyUpstream(m link.Control) {
	e.s.changes++
	if tx := e.s.out[e.port].tx; tx != nil {
		tx.SendControl(e.s.eng.Now(), m)
	}
}

func (e portEnv) MarkCrossed(out int, above bool) {
	e.s.changes++
	e.s.out[out].mark.Crossed(above)
}

func (e portEnv) Lookahead(out, dest int) int {
	if e.s.lookahead == nil {
		return 0
	}
	return e.s.lookahead(out, dest)
}
