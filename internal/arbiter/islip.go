// Package arbiter implements the iSLIP crossbar scheduling algorithm
// (McKeown, ToN 1999) used by every switch in the paper's evaluation
// (Table I: "Scheduling: iSlip algorithm"). iSLIP computes a maximal
// matching between input and output ports with rotating round-robin
// grant/accept pointers, which is what gives the fair per-input-port
// arbitration the CCFIT fairness analysis relies on.
package arbiter

import "math/bits"

// ISlip is an iSLIP scheduler instance for one switch. It keeps the
// per-output grant pointers and per-input accept pointers across
// cycles, as the algorithm requires ("desynchronisation" of pointers is
// what makes iSLIP achieve 100% throughput on uniform traffic).
//
// Requests are bitmasks: each output owns ceil(in/64) words of request
// bits and as many priority bits, indexed by input, so a grant is a
// word-wise AND plus a trailing-zero count instead of a scan over
// per-pair predicates. Any radix works.
type ISlip struct {
	in, out, iters int
	words          int   // 64-bit words in one output's input mask
	grant          []int // per output: next input to favour
	accept         []int // per input: next output to favour
	// req and prio hold output o's input masks at [o*words, (o+1)*words);
	// Request sets them, Match consumes and clears them. reqOut and
	// prioOut mark the outputs holding any request / priority request,
	// so Match visits and clears only those.
	req, prio       []uint64
	reqOut, prioOut []uint64
	// scratch, reused across Match calls to stay allocation-free
	free     []uint64 // inputs not matched yet
	grantIn  []uint64 // inputs holding a grant this iteration
	matchIn  []int    // per input: matched output or -1
	matchOut []int    // per output: matched input or -1
	granted  []int    // per input: output that granted this iteration
}

// NewISlip returns a scheduler for in input ports and out output ports
// running the given number of request/grant/accept iterations per cycle
// (the paper does not state the count; 2 is a common hardware choice
// and the results are insensitive to it — see BenchmarkAblationISlip).
func NewISlip(in, out, iters int) *ISlip {
	if in <= 0 || out <= 0 || iters <= 0 {
		panic("arbiter: NewISlip needs positive dimensions and iterations")
	}
	words, outWords := (in+63)/64, (out+63)/64
	return &ISlip{
		in: in, out: out, iters: iters, words: words,
		grant:    make([]int, out),
		accept:   make([]int, in),
		req:      make([]uint64, out*words),
		prio:     make([]uint64, out*words),
		reqOut:   make([]uint64, outWords),
		prioOut:  make([]uint64, outWords),
		free:     make([]uint64, words),
		grantIn:  make([]uint64, words),
		matchIn:  make([]int, in),
		matchOut: make([]int, out),
		granted:  make([]int, in),
	}
}

// Request records that input i requests output o for the next Match.
// prio marks the request high priority (the paper gives BECN packets
// transmission priority): a requesting input with priority wins the
// grant round over non-priority inputs at the same output. Recording
// the same pair again ORs the priority in.
func (s *ISlip) Request(i, o int, prio bool) {
	w, b := o*s.words+i>>6, uint64(1)<<(i&63)
	s.req[w] |= b
	s.reqOut[o>>6] |= uint64(1) << (o & 63)
	if prio {
		s.prio[w] |= b
		s.prioOut[o>>6] |= uint64(1) << (o & 63)
	}
}

// Requested reports whether input i has requested output o since the
// last Match.
func (s *ISlip) Requested(i, o int) bool {
	return s.req[o*s.words+i>>6]&(uint64(1)<<(i&63)) != 0
}

// Match computes a matching over the requests recorded since the last
// Match, then clears them. The returned slice maps each input port to
// its matched output port, or -1; it is valid until the next Match.
func (s *ISlip) Match() []int {
	for i := range s.matchIn {
		s.matchIn[i] = -1
	}
	for o := range s.matchOut {
		s.matchOut[o] = -1
	}
	for w := range s.free {
		s.free[w] = ^uint64(0)
	}

	for it := 0; it < s.iters; it++ {
		// Grant phase: each unmatched output with requests picks among
		// the requesting unmatched inputs the first priority request in
		// pointer order, else the first request in pointer order. An
		// input may collect several grants; it keeps the one closest to
		// its accept pointer.
		anyGrant := false
		for ow, set := range s.reqOut {
			for set != 0 {
				o := ow<<6 | bits.TrailingZeros64(set)
				set &= set - 1
				if s.matchOut[o] != -1 {
					continue
				}
				req := s.req[o*s.words : (o+1)*s.words]
				pick := -1
				if s.prioOut[ow]&(uint64(1)<<(o&63)) != 0 {
					pick = s.first(req, s.prio[o*s.words:(o+1)*s.words], s.grant[o])
				}
				if pick == -1 {
					pick = s.first(req, nil, s.grant[o])
				}
				if pick == -1 {
					continue
				}
				b := uint64(1) << (pick & 63)
				if s.grantIn[pick>>6]&b == 0 {
					s.grantIn[pick>>6] |= b
					s.granted[pick] = o
				} else if s.closerOutput(pick, o, s.granted[pick]) {
					s.granted[pick] = o
				}
				anyGrant = true
			}
		}
		if !anyGrant {
			break
		}
		// Accept phase: each input with a grant accepts it (granted
		// inputs are unmatched, so every grant becomes a match).
		for iw, set := range s.grantIn {
			s.grantIn[iw] = 0
			for set != 0 {
				i := iw<<6 | bits.TrailingZeros64(set)
				set &= set - 1
				o := s.granted[i]
				s.matchIn[i] = o
				s.matchOut[o] = i
				s.free[iw] &^= uint64(1) << (i & 63)
				if it == 0 {
					// Pointers advance only for first-iteration matches
					// (the iSLIP rule that prevents starvation).
					s.grant[o] = next(i, s.in)
					s.accept[i] = next(o, s.out)
				}
			}
		}
	}
	for ow, set := range s.reqOut {
		for set != 0 {
			o := ow<<6 | bits.TrailingZeros64(set)
			set &= set - 1
			clear(s.req[o*s.words : (o+1)*s.words])
			clear(s.prio[o*s.words : (o+1)*s.words])
		}
		s.reqOut[ow] = 0
		s.prioOut[ow] = 0
	}
	return s.matchIn
}

// first returns the first unmatched input at or after start, in cyclic
// order, whose bit is set in req (and in prio, when prio is non-nil),
// or -1. The start word is visited twice: its bits at or above start
// first, its bits below start last.
func (s *ISlip) first(req, prio []uint64, start int) int {
	w0, n := start>>6, len(req)
	for k := 0; k <= n; k++ {
		w := w0 + k
		if w >= n {
			w -= n
		}
		m := req[w] & s.free[w]
		if prio != nil {
			m &= prio[w]
		}
		switch k {
		case 0:
			m &= ^uint64(0) << (start & 63)
		case n:
			m &= uint64(1)<<(start&63) - 1
		}
		if m != 0 {
			return w<<6 | bits.TrailingZeros64(m)
		}
	}
	return -1
}

// closerOutput reports whether output a precedes output b in input i's
// accept-pointer round-robin order.
func (s *ISlip) closerOutput(i, a, b int) bool {
	return dist(s.accept[i], a, s.out) < dist(s.accept[i], b, s.out)
}

// next returns the slot after i in a ring of n.
func next(i, n int) int {
	if i++; i == n {
		return 0
	}
	return i
}

// dist returns how many steps slot i lies after ptr in a ring of n.
func dist(ptr, i, n int) int {
	if d := i - ptr; d >= 0 {
		return d
	}
	return i - ptr + n
}

// RoundRobin is a simple rotating picker used for per-port queue
// selection (e.g. an input adapter choosing among its AdVOQs, or an
// input port choosing among NFQ/CFQs granted the same output).
type RoundRobin struct {
	n    int
	next int
}

// NewRoundRobin returns a picker over n slots.
func NewRoundRobin(n int) *RoundRobin {
	if n <= 0 {
		panic("arbiter: NewRoundRobin needs n > 0")
	}
	return &RoundRobin{n: n}
}

// Pick returns the first eligible slot starting from the pointer, and
// advances the pointer past it; -1 if none is eligible.
func (r *RoundRobin) Pick(eligible func(i int) bool) int {
	i := r.next
	for k := 0; k < r.n; k++ {
		if eligible(i) {
			r.next = next(i, r.n)
			return i
		}
		i = next(i, r.n)
	}
	return -1
}

// Pointer returns the current round-robin position without advancing.
func (r *RoundRobin) Pointer() int { return r.next }

// Closer reports whether slot a precedes slot b in the current
// round-robin order (used to compare candidates without advancing).
func (r *RoundRobin) Closer(a, b int) bool {
	return dist(r.next, a, r.n) < dist(r.next, b, r.n)
}

// Served advances the pointer past slot i after it was chosen
// externally (e.g. by a crossbar grant rather than Pick).
func (r *RoundRobin) Served(i int) { r.next = next(i, r.n) }
