package arbiter

import (
	"testing"
	"testing/quick"
)

// matchPred records every request req(i,o) reports (with priority
// prio(i,o); prio may be nil) and runs one Match.
func matchPred(s *ISlip, req, prio func(in, out int) bool) []int {
	for i := 0; i < s.in; i++ {
		for o := 0; o < s.out; o++ {
			if req(i, o) {
				s.Request(i, o, prio != nil && prio(i, o))
			}
		}
	}
	return s.Match()
}

// reqMatrix adapts a [][]bool to the request callback.
func reqMatrix(m [][]bool) func(i, o int) bool {
	return func(i, o int) bool { return m[i][o] }
}

func TestMatchIsAMatching(t *testing.T) {
	s := NewISlip(4, 4, 2)
	req := [][]bool{
		{true, true, false, false},
		{true, false, false, false},
		{false, false, true, true},
		{false, false, false, true},
	}
	m := matchPred(s, reqMatrix(req), nil)
	seenOut := map[int]bool{}
	for i, o := range m {
		if o == -1 {
			continue
		}
		if !req[i][o] {
			t.Fatalf("input %d matched unrequested output %d", i, o)
		}
		if seenOut[o] {
			t.Fatalf("output %d matched twice", o)
		}
		seenOut[o] = true
	}
	// iSLIP yields a *maximal* matching: no request can be added
	// between an unmatched input and an unmatched output.
	for i, o := range m {
		if o != -1 {
			continue
		}
		for cand := 0; cand < 4; cand++ {
			if req[i][cand] && !seenOut[cand] {
				t.Fatalf("matching %v not maximal: input %d / output %d both free", m, i, cand)
			}
		}
	}
}

func TestSingleContendedOutputRotates(t *testing.T) {
	// 3 inputs all wanting output 0: over 3 cycles each must win once
	// (round-robin fairness, the property the fairness study uses).
	s := NewISlip(3, 1, 1)
	wins := make([]int, 3)
	for c := 0; c < 30; c++ {
		m := matchPred(s, func(i, o int) bool { return true }, nil)
		won := -1
		for i, o := range m {
			if o == 0 {
				if won != -1 {
					t.Fatal("two inputs matched one output")
				}
				won = i
			}
		}
		if won == -1 {
			t.Fatal("nobody matched a fully requested output")
		}
		wins[won]++
	}
	for i, w := range wins {
		if w != 10 {
			t.Fatalf("input %d won %d/30, want 10 (wins=%v)", i, w, wins)
		}
	}
}

func TestNoRequestsNoMatch(t *testing.T) {
	s := NewISlip(2, 2, 2)
	m := matchPred(s, func(i, o int) bool { return false }, nil)
	for i, o := range m {
		if o != -1 {
			t.Fatalf("input %d matched %d with no requests", i, o)
		}
	}
}

func TestPriorityWinsGrant(t *testing.T) {
	s := NewISlip(4, 1, 1)
	// All inputs request output 0; input 2 has priority (a BECN at its
	// head). It must win regardless of pointer position.
	for c := 0; c < 8; c++ {
		m := matchPred(s,
			func(i, o int) bool { return true },
			func(i, o int) bool { return i == 2 },
		)
		for i, o := range m {
			if o == 0 && i != 2 {
				t.Fatalf("cycle %d: input %d beat the priority input", c, i)
			}
		}
		if m[2] != 0 {
			t.Fatalf("cycle %d: priority input unmatched", c)
		}
	}
}

func TestMultipleIterationsImprove(t *testing.T) {
	// Pattern where 1 iteration can leave an input unmatched: inputs 0
	// and 1 both want outputs 0 and 1. With pointers aligned, both
	// outputs grant input 0 in iteration 1, input 1 only matches in
	// iteration 2.
	s1 := NewISlip(2, 2, 1)
	m1 := matchPred(s1, func(i, o int) bool { return true }, nil)
	matched1 := 0
	for _, o := range m1 {
		if o != -1 {
			matched1++
		}
	}
	s2 := NewISlip(2, 2, 2)
	m2 := matchPred(s2, func(i, o int) bool { return true }, nil)
	matched2 := 0
	for _, o := range m2 {
		if o != -1 {
			matched2++
		}
	}
	if matched2 != 2 {
		t.Fatalf("2-iteration iSLIP matched %d/2", matched2)
	}
	if matched1 > matched2 {
		t.Fatalf("more iterations matched fewer ports (%d vs %d)", matched1, matched2)
	}
}

func TestDesynchronisationFullLoad(t *testing.T) {
	// Under full uniform request load, after a warm-up the pointers
	// desynchronise and every cycle yields a perfect matching — the
	// hallmark iSLIP behaviour.
	s := NewISlip(4, 4, 1)
	req := func(i, o int) bool { return true }
	perfect := 0
	for c := 0; c < 100; c++ {
		m := matchPred(s, req, nil)
		n := 0
		for _, o := range m {
			if o != -1 {
				n++
			}
		}
		if c >= 10 && n == 4 {
			perfect++
		}
	}
	if perfect != 90 {
		t.Fatalf("perfect matchings after warm-up: %d/90", perfect)
	}
}

// Property: for arbitrary request matrices the result is always a valid
// matching and respects requests.
func TestMatchValidityProperty(t *testing.T) {
	f := func(bits []bool, in8, out8 uint8) bool {
		in := int(in8%6) + 1
		out := int(out8%6) + 1
		s := NewISlip(in, out, 2)
		req := func(i, o int) bool {
			idx := i*out + o
			return idx < len(bits) && bits[idx]
		}
		for round := 0; round < 4; round++ {
			m := matchPred(s, req, nil)
			used := map[int]bool{}
			for i, o := range m {
				if o == -1 {
					continue
				}
				if o < 0 || o >= out || !req(i, o) || used[o] {
					return false
				}
				used[o] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundRobinPicker(t *testing.T) {
	r := NewRoundRobin(3)
	all := func(int) bool { return true }
	got := []int{r.Pick(all), r.Pick(all), r.Pick(all), r.Pick(all)}
	want := []int{0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("picks = %v, want %v", got, want)
		}
	}
	if r.Pick(func(int) bool { return false }) != -1 {
		t.Fatal("pick with nothing eligible")
	}
	// Skips ineligible slots but still rotates.
	only2 := func(i int) bool { return i == 2 }
	if r.Pick(only2) != 2 || r.Pick(only2) != 2 {
		t.Fatal("picker does not find the only eligible slot")
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewISlip(0, 1, 1) },
		func() { NewISlip(1, 0, 1) },
		func() { NewISlip(1, 1, 0) },
		func() { NewRoundRobin(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad constructor args did not panic")
				}
			}()
			fn()
		}()
	}
}

func BenchmarkISlip8x8Full(b *testing.B) {
	s := NewISlip(8, 8, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for in := 0; in < 8; in++ {
			for o := 0; o < 8; o++ {
				s.Request(in, o, false)
			}
		}
		s.Match()
	}
}
