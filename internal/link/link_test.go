package link

import (
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

type sink struct {
	pkts []*pkt.Packet
	cfqs []int
	ctls []Control
	at   []sim.Cycle
	eng  *sim.Engine
}

func (s *sink) ReceivePacket(p *pkt.Packet, cfq int) {
	s.pkts = append(s.pkts, p)
	s.cfqs = append(s.cfqs, cfq)
	s.at = append(s.at, s.eng.Now())
}
func (s *sink) ReceiveControl(m Control) {
	s.ctls = append(s.ctls, m)
	s.at = append(s.at, s.eng.Now())
}

func setup(bpc int, delay sim.Cycle) (*sim.Engine, *Half, *sink) {
	eng := sim.NewEngine(1)
	h := NewHalf(eng, "t", bpc, delay)
	s := &sink{eng: eng}
	h.SetReceivers(s, s)
	return eng, h, s
}

func TestTxCycles(t *testing.T) {
	_, h, _ := setup(64, 4)
	cases := map[int]sim.Cycle{1: 1, 64: 1, 65: 2, 2048: 32}
	for size, want := range cases {
		if got := h.TxCycles(size); got != want {
			t.Fatalf("TxCycles(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestSendTiming(t *testing.T) {
	eng, h, s := setup(64, 4)
	var g pkt.IDGen
	p := pkt.NewData(&g, 0, 1, 0, 2048, 0)
	done := h.Send(eng.Now(), p, -1)
	if done != 32 {
		t.Fatalf("busy horizon = %d, want 32", done)
	}
	if h.Free(10) {
		t.Fatal("link free mid-transfer")
	}
	eng.Run(40)
	// Arrival = serialization (32) + propagation (4).
	if len(s.pkts) != 1 || s.at[0] != 36 {
		t.Fatalf("arrived %d packets, at %v; want 1 at 36", len(s.pkts), s.at)
	}
	if s.cfqs[0] != -1 {
		t.Fatalf("cfq tag = %d, want -1", s.cfqs[0])
	}
	if !h.Free(32) {
		t.Fatal("link not free after serialization completes")
	}
}

func TestBackToBackPacketsKeepLineRate(t *testing.T) {
	eng, h, s := setup(64, 0)
	var g pkt.IDGen
	for i := 0; i < 4; i++ {
		eng.Run(h.FreeAt())
		h.Send(eng.Now(), pkt.NewData(&g, 0, 1, 0, 2048, 0), -1)
	}
	eng.Run(200)
	if len(s.pkts) != 4 {
		t.Fatalf("delivered %d, want 4", len(s.pkts))
	}
	// 4 MTUs at 64 B/cyc = 128 cycles total, arrivals at 32,64,96,128.
	for i, at := range s.at {
		if at != sim.Cycle(32*(i+1)) {
			t.Fatalf("arrival %d at cycle %d, want %d", i, at, 32*(i+1))
		}
	}
}

func TestDoubleBandwidthHalvesTime(t *testing.T) {
	eng, h, s := setup(128, 0) // 5 GB/s inter-switch link of Config #1
	var g pkt.IDGen
	h.Send(0, pkt.NewData(&g, 0, 1, 0, 2048, 0), -1)
	eng.Run(20)
	if len(s.pkts) != 1 || s.at[0] != 16 {
		t.Fatalf("arrival at %v, want [16]", s.at)
	}
}

func TestSendWhileBusyPanics(t *testing.T) {
	eng, h, _ := setup(64, 4)
	var g pkt.IDGen
	h.Send(0, pkt.NewData(&g, 0, 1, 0, 2048, 0), -1)
	defer func() {
		if recover() == nil {
			t.Fatal("send on busy link did not panic")
		}
	}()
	h.Send(eng.Now(), pkt.NewData(&g, 0, 1, 0, 64, 0), -1)
}

func TestControlDelayAndNoBandwidth(t *testing.T) {
	eng, h, s := setup(64, 5)
	var g pkt.IDGen
	// Control rides alongside a data transfer without waiting for it.
	h.Send(0, pkt.NewData(&g, 0, 1, 0, 2048, 0), 1)
	h.SendControl(0, Control{Kind: Credit, Bytes: 2048})
	eng.Run(50)
	if len(s.ctls) != 1 {
		t.Fatalf("controls = %d, want 1", len(s.ctls))
	}
	if s.at[0] != 5 { // control first: delay only
		t.Fatalf("control arrived at %d, want 5", s.at[0])
	}
	if s.ctls[0].Kind != Credit || s.ctls[0].Bytes != 2048 {
		t.Fatalf("control = %+v", s.ctls[0])
	}
	if s.cfqs[0] != 1 {
		t.Fatalf("direct-CFQ tag = %d, want 1", s.cfqs[0])
	}
}

func TestCtlKindStrings(t *testing.T) {
	for k, want := range map[CtlKind]string{
		Credit: "credit", CFQAlloc: "cfq-alloc", CFQStop: "cfq-stop",
		CFQGo: "cfq-go", CFQDealloc: "cfq-dealloc", CtlKind(42): "ctl(42)",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	for _, fn := range []func(){
		func() { NewHalf(eng, "x", 0, 1) },
		func() { NewHalf(eng, "x", 64, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad link params did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestUnattachedReceiverPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	h := NewHalf(eng, "x", 64, 1)
	var g pkt.IDGen
	defer func() {
		if recover() == nil {
			t.Fatal("send without receiver did not panic")
		}
	}()
	h.Send(0, pkt.NewData(&g, 0, 1, 0, 64, 0), -1)
}

// arrivalLog records packet and control arrivals with their cycles.
type arrivalLog struct {
	eng          *sim.Engine
	pkts         []*pkt.Packet
	cfqs         []int
	pktAt, ctlAt []sim.Cycle
	ctls         []Control
}

func (l *arrivalLog) ReceivePacket(p *pkt.Packet, cfq int) {
	l.pkts, l.cfqs, l.pktAt = append(l.pkts, p), append(l.cfqs, cfq), append(l.pktAt, l.eng.Now())
}

func (l *arrivalLog) ReceiveControl(m Control) {
	l.ctls, l.ctlAt = append(l.ctls, m), append(l.ctlAt, l.eng.Now())
}

// TestArrivalRingsKeepOrderAcrossFaults drives enough traffic through
// one direction that both arrival rings grow well past their initial
// size, degrades the bandwidth mid-flight and condemns an in-flight
// epoch. Every packet must land (or be dropped) exactly once, in send
// order, at its own serialization-plus-propagation cycle, and every
// control message must arrive in order one delay after it was sent.
func TestArrivalRingsKeepOrderAcrossFaults(t *testing.T) {
	const delay = 300
	eng := sim.NewEngine(1)
	h := NewHalf(eng, "t", 64, delay)
	l := &arrivalLog{eng: eng}
	h.SetReceivers(l, l)
	var dropped []*pkt.Packet
	var dropAt []sim.Cycle
	h.SetDropHandler(func(p *pkt.Packet) {
		dropped, dropAt = append(dropped, p), append(dropAt, eng.Now())
	})
	var g pkt.IDGen
	var sent []*pkt.Packet
	var due []sim.Cycle // arrival (or drop) cycle per packet
	condemned := 0      // sent[:condemned] are on the wire at DropInFlight
	for now := sim.Cycle(0); now < 400; now++ {
		eng.Run(now)
		switch now {
		case 60:
			h.Degrade(16) // packets already on the wire keep their timing
		case 150:
			condemned = len(sent) // nothing has arrived yet (delay 300)
			if n := h.DropInFlight(); n != condemned {
				t.Fatalf("DropInFlight condemned %d, want %d", n, condemned)
			}
		case 200:
			h.Restore()
		}
		if h.Free(now) {
			p := pkt.NewData(&g, 0, 1, 0, 64, 0)
			sent = append(sent, p)
			due = append(due, h.Send(now, p, len(sent))+delay)
		}
		h.SendControl(now, Control{Kind: CFQStop, CFQ: int(now)})
	}
	eng.Run(1000)

	if h.pkts.q.Cap() <= 8 || h.ctls.q.Cap() <= 8 {
		t.Fatalf("rings did not grow (packet cap %d, control cap %d)", h.pkts.q.Cap(), h.ctls.q.Cap())
	}
	if condemned == 0 || condemned == len(sent) {
		t.Fatalf("%d of %d packets condemned; the test needs some of each", condemned, len(sent))
	}
	if len(dropped) != condemned || len(l.pkts) != len(sent)-condemned {
		t.Fatalf("dropped %d / landed %d, want %d / %d", len(dropped), len(l.pkts), condemned, len(sent)-condemned)
	}
	for i := range dropped {
		if dropped[i] != sent[i] || dropAt[i] != due[i] {
			t.Fatalf("drop %d: packet %v at %d, want %v at %d", i, dropped[i], dropAt[i], sent[i], due[i])
		}
	}
	for j := range l.pkts {
		i := condemned + j
		if l.pkts[j] != sent[i] || l.cfqs[j] != i+1 || l.pktAt[j] != due[i] {
			t.Fatalf("arrival %d: packet %v cfq %d at %d, want %v cfq %d at %d",
				j, l.pkts[j], l.cfqs[j], l.pktAt[j], sent[i], i+1, due[i])
		}
	}
	if len(l.ctls) != 400 {
		t.Fatalf("delivered %d control messages, want 400", len(l.ctls))
	}
	for i, m := range l.ctls {
		if m.CFQ != i || l.ctlAt[i] != sim.Cycle(i)+delay {
			t.Fatalf("control %d: CFQ %d at %d, want CFQ %d at %d", i, m.CFQ, l.ctlAt[i], i, i+delay)
		}
	}
	if p, b := h.InFlight(); p != 0 || b != 0 {
		t.Fatalf("in flight after drain: %d pkts / %d bytes", p, b)
	}
}

// TestArrivalRingRejectsOutOfOrderSchedule: a ring event scheduled
// earlier than its predecessor would pop the wrong payload, so the
// link refuses it.
func TestArrivalRingRejectsOutOfOrderSchedule(t *testing.T) {
	_, h, _ := setup(64, 10)
	h.SendControl(5, Control{Kind: CFQGo})
	defer func() {
		if recover() == nil {
			t.Fatal("control scheduled before an earlier one did not panic")
		}
	}()
	h.SendControl(4, Control{Kind: CFQGo})
}

// TestCutDirectionHandsPayloadsOverAtDrain: on a partition-cut
// direction the sender's payloads stay in its outbox until the mailbox
// drains, then land on the receiving engine in order, on time, and
// counted in the receiver-owned arrival mirror.
func TestCutDirectionHandsPayloadsOverAtDrain(t *testing.T) {
	const delay = 4
	engs := sim.NewEngineGroup(1, 2)
	h := NewHalf(engs[0], "cut", 64, delay)
	l := &arrivalLog{eng: engs[1]}
	h.SetReceivers(l, l)
	mb := sim.NewMailbox(engs[1], 0)
	h.SetRemote(mb)
	var g pkt.IDGen
	var due []sim.Cycle
	for window := sim.Cycle(0); window < 40; window += delay {
		ring := h.pkts.q.Len() + h.ctls.q.Len()
		for now := window; now < window+delay; now++ {
			engs[0].Run(now)
			if h.Free(now) {
				due = append(due, h.Send(now, pkt.NewData(&g, 0, 1, 0, 128, 0), len(due))+delay)
			}
			h.SendControl(now, Control{Kind: Credit, Bytes: int(now)})
		}
		engs[0].Run(window + delay)
		if h.pkts.q.Len()+h.ctls.q.Len() != ring || h.outbox.ctls.Len() != delay {
			t.Fatal("sender wrote the receiver's rings mid-window")
		}
		engs[1].Run(window + delay)
		mb.Drain()
	}
	engs[1].Run(100)
	if len(l.pkts) != len(due) {
		t.Fatalf("landed %d packets, want %d", len(l.pkts), len(due))
	}
	for i := range due {
		if l.cfqs[i] != i || l.pktAt[i] != due[i] {
			t.Fatalf("packet %d: cfq %d at %d, want cfq %d at %d", i, l.cfqs[i], l.pktAt[i], i, due[i])
		}
	}
	for i, m := range l.ctls {
		if m.Bytes != i || l.ctlAt[i] != sim.Cycle(i)+delay {
			t.Fatalf("control %d: %d at %d, want %d at %d", i, m.Bytes, l.ctlAt[i], i, i+delay)
		}
	}
	if len(l.ctls) != 40 {
		t.Fatalf("delivered %d control messages, want 40", len(l.ctls))
	}
	if p, b := h.InFlight(); p != 0 || b != 0 {
		t.Fatalf("in flight after drain: %d pkts / %d bytes", p, b)
	}
}
