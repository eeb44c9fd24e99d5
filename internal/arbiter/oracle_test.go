package arbiter

import (
	"math/rand"
	"testing"
)

// predISlip is the predicate-driven iSLIP the bitmask scheduler
// replaced, kept as an executable specification: per output, scan the
// inputs in grant-pointer order and take the first priority requester,
// else the first requester; per input, accept the granting output
// closest to the accept pointer; advance pointers on first-iteration
// matches only.
type predISlip struct {
	in, out, iters    int
	grant, accept     []int
	matchIn, matchOut []int
	granted           []int
}

func newPredISlip(in, out, iters int) *predISlip {
	return &predISlip{
		in: in, out: out, iters: iters,
		grant: make([]int, out), accept: make([]int, in),
		matchIn: make([]int, in), matchOut: make([]int, out), granted: make([]int, in),
	}
}

func (s *predISlip) Match(req, prio func(in, out int) bool) []int {
	for i := range s.matchIn {
		s.matchIn[i] = -1
	}
	for o := range s.matchOut {
		s.matchOut[o] = -1
	}
	for it := 0; it < s.iters; it++ {
		for i := range s.granted {
			s.granted[i] = -1
		}
		progress := false
		for o := 0; o < s.out; o++ {
			if s.matchOut[o] != -1 {
				continue
			}
			pick, pickPrio := -1, false
			for k := 0; k < s.in; k++ {
				i := (s.grant[o] + k) % s.in
				if s.matchIn[i] != -1 || !req(i, o) {
					continue
				}
				p := prio != nil && prio(i, o)
				if pick == -1 || (p && !pickPrio) {
					pick, pickPrio = i, p
					if pickPrio {
						break
					}
				}
			}
			if pick >= 0 {
				if cur := s.granted[pick]; cur == -1 || s.closer(pick, o, cur) {
					s.granted[pick] = o
				}
			}
		}
		for i := 0; i < s.in; i++ {
			o := s.granted[i]
			if o == -1 || s.matchIn[i] != -1 {
				continue
			}
			s.matchIn[i] = o
			s.matchOut[o] = i
			progress = true
			if it == 0 {
				s.grant[o] = (i + 1) % s.in
				s.accept[i] = (o + 1) % s.out
			}
		}
		if !progress {
			break
		}
	}
	return s.matchIn
}

func (s *predISlip) closer(i, a, b int) bool {
	return (a-s.accept[i]+s.out)%s.out < (b-s.accept[i]+s.out)%s.out
}

// TestBitmaskMatchesPredicateOracle drives the bitmask scheduler and
// the predicate oracle with the same random request and priority
// matrices for many consecutive cycles, across radixes that straddle
// the 64-bit word boundary, and requires the same matching and the
// same grant/accept pointers after every cycle.
func TestBitmaskMatchesPredicateOracle(t *testing.T) {
	const cycles = 1200
	for _, radix := range []int{1, 2, 5, 8, 16, 63, 64, 65, 130} {
		for _, iters := range []int{1, 2, 4} {
			rng := rand.New(rand.NewSource(int64(radix*10 + iters)))
			s := NewISlip(radix, radix, iters)
			o := newPredISlip(radix, radix, iters)
			req := make([][]bool, radix)
			prio := make([][]bool, radix)
			for i := range req {
				req[i] = make([]bool, radix)
				prio[i] = make([]bool, radix)
			}
			for c := 0; c < cycles; c++ {
				// Vary the density so sparse, dense and saturated
				// cycles all occur.
				density := rng.Float64()
				for i := 0; i < radix; i++ {
					for j := 0; j < radix; j++ {
						req[i][j] = rng.Float64() < density
						prio[i][j] = req[i][j] && rng.Intn(8) == 0
						if req[i][j] {
							s.Request(i, j, prio[i][j])
						}
					}
				}
				got := s.Match()
				want := o.Match(reqMatrix(req), reqMatrix(prio))
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("radix %d iters %d cycle %d: match %v, oracle %v", radix, iters, c, got, want)
					}
				}
				for j := range o.grant {
					if s.grant[j] != o.grant[j] {
						t.Fatalf("radix %d iters %d cycle %d: grant pointers %v, oracle %v", radix, iters, c, s.grant, o.grant)
					}
				}
				for i := range o.accept {
					if s.accept[i] != o.accept[i] {
						t.Fatalf("radix %d iters %d cycle %d: accept pointers %v, oracle %v", radix, iters, c, s.accept, o.accept)
					}
				}
			}
		}
	}
}

// TestMatchClearsRequests: requests are consumed by Match, so a cycle
// that records nothing matches nothing.
func TestMatchClearsRequests(t *testing.T) {
	s := NewISlip(70, 3, 2)
	s.Request(69, 2, true)
	s.Request(3, 0, false)
	if !s.Requested(69, 2) || s.Requested(69, 1) {
		t.Fatal("Requested does not reflect the recorded requests")
	}
	if m := s.Match(); m[69] != 2 || m[3] != 0 {
		t.Fatalf("match %v, want input 69->2 and 3->0", m)
	}
	if s.Requested(69, 2) {
		t.Fatal("Match left a request recorded")
	}
	for i, o := range s.Match() {
		if o != -1 {
			t.Fatalf("input %d matched %d with no requests recorded", i, o)
		}
	}
}
