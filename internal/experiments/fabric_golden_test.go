package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/testutil"
	"repro/internal/topo"
)

// The fabric digests pin what the result digests do not see: every
// switch's counters (CreditStalls included), every input port's
// discipline counters, every allocated input CAM line with its
// LastActive, and every node's counters at the end of a run — plus
// the watchdog snapshot of a wedged switch, serial and partitioned.
// The runs are the ones where switches spend most cycles blocked: a
// deep congestion tree (fig8b), the 512-node hot spot at one and two
// sim workers, the root-link flap, open-loop leaf-spine incast, and a
// fault script that drops in-flight packets into a credit-blocked
// switch and stalls both switches. Any engine change that elides
// blocked cycles must reproduce all of it exactly.
//
// Regenerate (only when an intentional behaviour change is made) with:
//
//	go test ./internal/experiments -run TestFabricDigests -update-golden
const fabricPath = "testdata/fabric_digests.json"

type fabricCase struct {
	expID   string
	scale   float64
	workers int
	schemes []string      // nil: every scheme the experiment evaluates
	faults  *fault.Script // injected after Build (nil: none beyond the experiment's own)
	traced  bool          // attach a tracer and digest its event stream
	tag     string        // key suffix distinguishing variants
}

var fabricCases = []fabricCase{
	{expID: "fig8b", scale: 1, workers: 1, schemes: []string{"CCFIT"}},
	{expID: "fig8b", scale: 1, workers: 1, schemes: []string{"CCFIT"}, traced: true, tag: "+trace"},
	{expID: "x512hotspot", scale: 0.5, workers: 1, schemes: []string{"CCFIT"}},
	{expID: "x512hotspot", scale: 0.5, workers: 2, schemes: []string{"CCFIT"}},
	{expID: "xfaultflap", scale: 1, workers: 1},
	{expID: "xleafincast", scale: 1, workers: 1},
	{expID: "fig7a", scale: 1, workers: 1, schemes: []string{"1Q", "CCFIT"}, faults: dropAndStallScript(), tag: "+dropstall"},
}

// dropAndStallScript flaps the inter-switch link A->B with the drop
// policy 24 times once the Case #1 hot spot has congested B's input
// port from A, so switch A is blocked on credits toward it: each
// condemned packet refunds its credit into a switch that is mostly
// asleep waiting for exactly that. It also stalls each switch once.
func dropAndStallScript() *fault.Script {
	swA, swB := topo.Config1SwitchA, topo.Config1SwitchB
	ab := &fault.LinkRef{From: swA, To: swB}
	var ev []fault.Event
	for i := 0; i < 24; i++ {
		ev = append(ev, fault.Event{Kind: fault.LinkFlap, AtMS: 4.5 + 0.197*float64(i), DurationMS: 0.004,
			Link: ab, Params: fault.Params{Drop: true}})
	}
	ev = append(ev,
		fault.Event{Kind: fault.SwitchStall, AtMS: 5.2, DurationMS: 0.1, Switch: &swA},
		fault.Event{Kind: fault.SwitchStall, AtMS: 7.6, DurationMS: 0.05, Switch: &swB},
	)
	return &fault.Script{Name: "drop-and-stall", Events: ev}
}

// fabricState is everything the fabric digest covers.
type fabricState struct {
	Result   *Result
	Switches []switchState
	Nodes    []any
	Trace    string `json:",omitempty"`
}

// traceHash digests a run's congestion-management event stream (a
// congestion tree exhausting the CFQs emits one event per cycle).
type traceHash struct{ h hash.Hash }

func (t traceHash) Trace(ev core.Event) {
	fmt.Fprintf(t.h, "%d %s %s %d %d\n", ev.At, ev.Kind, ev.Where, ev.Dest, ev.Arg)
}

type switchState struct {
	Name  string
	Stats any
	Ports []any    // per input port: discipline counters
	Lines []string // allocated input CAM lines, rendered
}

func captureFabric(exp Experiment, scheme string, n *network.Network) fabricState {
	st := fabricState{Result: Harvest(exp, scheme, 1, n)}
	for _, sw := range n.Switches {
		ss := switchState{Name: sw.Name(), Stats: *sw.Stats()}
		for i := 0; i < sw.NumPorts(); i++ {
			d := sw.InputDisc(i)
			ss.Ports = append(ss.Ports, *d.Stats())
			iso, ok := d.(*core.IsolationUnit)
			if !ok {
				continue
			}
			for li := 0; li < iso.QueueCount()-1; li++ {
				line, dests, ok := iso.LineInfo(li)
				if !ok {
					continue
				}
				ss.Lines = append(ss.Lines, fmt.Sprintf("p%d line%d %+v dests=%v bytes=%d",
					i, li, line, dests, iso.CFQBytes(li)))
			}
		}
		st.Switches = append(st.Switches, ss)
	}
	for _, nd := range n.Nodes {
		st.Nodes = append(st.Nodes, *nd.Stats())
	}
	return st
}

func fabricDigest(t *testing.T, c fabricCase, scheme string) string {
	t.Helper()
	exp, err := ByID(c.expID)
	if err != nil {
		t.Fatal(err)
	}
	exp.Duration = sim.Cycle(float64(exp.Duration) * c.scale)
	if exp.Bin > exp.Duration {
		exp.Bin = exp.Duration
	}
	p, err := SchemeByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	var tr traceHash
	if c.traced {
		tr.h = sha256.New()
		p.Tracer = tr
	}
	n, err := exp.Build(p, 1, exp.Bin, exp.Duration, BuildOpts{SimWorkers: c.workers})
	if err != nil {
		t.Fatal(err)
	}
	if c.faults != nil {
		if _, err := n.InjectFaults(c.faults); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(exp.Duration)
	if n.Checker != nil {
		if err := n.Checker.Final(); err != nil {
			t.Fatalf("post-run audit: %v", err)
		}
	}
	st := captureFabric(exp, scheme, n)
	if c.traced {
		st.Trace = hex.EncodeToString(tr.h.Sum(nil))
	}
	return testutil.MustJSONDigest(t, st)
}

// wedgeSnapshot stalls switch B of Config #1 for good while the Case #1
// hot spot keeps its CFQs loaded, and returns the watchdog's snapshot:
// it lists every CAM line of the stalled switch with its LastActive.
func wedgeSnapshot(t *testing.T, workers int) string {
	t.Helper()
	p, err := SchemeByName("CCFIT")
	if err != nil {
		t.Fatal(err)
	}
	var got *invariant.Violation
	n, err := network.Build(topo.Config1(), p, network.Options{
		Seed:           1,
		WatchdogWindow: 10_000,
		SimWorkers:     workers,
		OnViolation: func(v *invariant.Violation) {
			if got == nil {
				got = v
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddFlows(Case1(ms(10))); err != nil {
		t.Fatal(err)
	}
	swB := topo.Config1SwitchB
	if _, err := n.InjectFaults(&fault.Script{
		Name:   "wedge-swB",
		Events: []fault.Event{{Kind: fault.SwitchStall, AtMS: 0.5, Switch: &swB}},
	}); err != nil {
		t.Fatal(err)
	}
	n.Run(ms(2))
	if got == nil {
		t.Fatal("watchdog never fired on the wedged switch")
	}
	return fmt.Sprintf("%s\n%s", got.Error(), got.Snapshot)
}

func TestFabricDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("fabric runs take several seconds")
	}
	type job struct {
		key string
		run func(t *testing.T) string
	}
	var jobs []job
	for _, c := range fabricCases {
		schemes := c.schemes
		if schemes == nil {
			exp, err := ByID(c.expID)
			if err != nil {
				t.Fatal(err)
			}
			schemes = exp.Schemes
		}
		for _, s := range schemes {
			c, s := c, s
			jobs = append(jobs, job{
				key: fmt.Sprintf("%s%s/%s@w%d", c.expID, c.tag, s, c.workers),
				run: func(t *testing.T) string { return fabricDigest(t, c, s) },
			})
		}
	}
	for _, w := range []int{1, 2} {
		w := w
		jobs = append(jobs, job{
			key: fmt.Sprintf("wedge-snapshot/CCFIT@w%d", w),
			run: func(t *testing.T) string {
				return testutil.MustJSONDigest(t, wedgeSnapshot(t, w))
			},
		})
	}
	results := make([]string, len(jobs))
	t.Run("runs", func(t *testing.T) {
		for i, j := range jobs {
			i, j := i, j
			t.Run(j.key, func(t *testing.T) {
				t.Parallel()
				results[i] = j.run(t)
			})
		}
	})
	got := make(map[string]string, len(jobs))
	for i, j := range jobs {
		got[j.key] = results[i]
	}
	testutil.CompareGoldenMap(t, fabricPath, got, *updateGolden)
}
