package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func TestInputsDeterministic(t *testing.T) {
	a, err := batchSubmission(3).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	b, err := batchSubmission(3).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 216 || len(b) != 216 {
		t.Fatalf("batch campaign expands to %d and %d cells, want 216", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("cell %d: %s vs %s", i, a[i], b[i])
		}
	}
	// Different workload seeds give disjoint cell seeds.
	seen := map[int64]int64{}
	for _, seed := range []int64{1, 2, 3} {
		jobs, err := batchSubmission(seed).Jobs()
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if s, ok := seen[j.Seed]; ok && s != seed {
				t.Fatalf("cell seed %d used by workload seeds %d and %d", j.Seed, s, seed)
			}
			seen[j.Seed] = seed
		}
	}
	if got := batchSubmission(1).Seed; got != 1 {
		t.Errorf("default seed's batch starts at cell seed %d, want 1", got)
	}
	p1, p2 := previewSubmission(1, 7), previewSubmission(1, 7)
	if !reflect.DeepEqual(p1, p2) {
		t.Errorf("preview submission not deterministic: %+v vs %+v", p1, p2)
	}
	if previewSubmission(1, 7).Seed == previewSubmission(1, 8).Seed ||
		previewSubmission(1, 7).Seed == previewSubmission(2, 7).Seed {
		t.Error("preview campaigns share a seed")
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) sample {
		s := make(sample, n)
		for i := range s {
			s[n-1-i] = float64(i + 1) // descending: the helper must sort
		}
		return s
	}
	for _, tc := range []struct {
		n       int
		ok      bool
		pct, at float64
	}{
		{n: 10},
		{n: 39},
		{n: 40, ok: true, pct: 75, at: 30},
		{n: 99, ok: true, pct: 75, at: 75},
		{n: 100, ok: true, pct: 90, at: 90},
		{n: 1000, ok: true, pct: 99, at: 990},
		{n: 10000, ok: true, pct: 99.9, at: 9990},
	} {
		pct, v, ok := seq(tc.n).tail()
		if ok != tc.ok || pct != tc.pct || v != tc.at {
			t.Errorf("n=%d: tail = p%g %g ok=%v, want p%g %g ok=%v", tc.n, pct, v, ok, tc.pct, tc.at, tc.ok)
		}
		if ok {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: p%g has %d samples beyond it, want at least 10", tc.n, pct, beyond)
			}
		}
	}
	if m := (sample{3, 1, 2, 10}).median(); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	tr.record("parent", 0, "", at(0), at(100))
	tr.record("child", 1, "", at(10), at(40))
	tr.record("child", 1, "", at(30), at(60)) // overlaps the first child
	tr.record("child", 1, "", at(90), at(120))
	got := map[string]spanStat{}
	for _, s := range tr.selfTimes() {
		got[s.Name] = s
	}
	if p := got["parent"]; p.Count != 1 || p.TotalMS != 100 || p.SelfMS != 40 {
		t.Errorf("parent = %+v, want total 100 ms, self 40 ms", p)
	}
	if c := got["child"]; c.Count != 3 || c.TotalMS != 90 || c.SelfMS != 90 {
		t.Errorf("child = %+v, want 3 spans, total = self = 90 ms", c)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0, ""); id != 0 {
		t.Errorf("nil tracer begin = %d, want 0", id)
	}
	nilTracer.end(0)
}

//go:noinline
func burn(d time.Duration) int {
	x := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			x ^= i * 31
		}
	}
	return x
}

func TestCPUProfileShares(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	burn(300 * time.Millisecond)
	shares, n, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Skip("no CPU samples collected on this host")
	}
	sum := 0.0
	for _, l := range selfLayers {
		sum += shares[l]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
	// burn is benchmark code: its samples belong to "other".
	if shares["other"] < 0.5 {
		t.Errorf("other = %g of %d samples, want most of them", shares["other"], n)
	}
	for stack, want := range map[string]string{
		"repro/internal/switchfab.(*Switch).arbitrate": "switchfab",
		"repro/internal/core.(*IsolationUnit).Post":    "core",
		"runtime.scanobject":                           "runtime.gc",
		"runtime.futex":                                "runtime.sched",
		"runtime.mallocgc":                             "runtime.other",
		"encoding/json.Marshal":                        "other",
	} {
		if got := classify([]string{stack}); got != want {
			t.Errorf("classify(%s) = %s, want %s", stack, got, want)
		}
	}
	if got := classify([]string{"runtime.memmove", "runtime.gcDrain"}); got != "runtime.gc" {
		t.Errorf("runtime leaf under the collector = %s, want runtime.gc", got)
	}
}

// short is a fig7a cell cut to 0.2 ms: the sim workload's code path in
// a fraction of a second.
var short = simSpec{name: "short", expID: "fig7a", scheme: "CCFIT", workers: 1, alt: 2, ms: 0.2, fabric: fig8b.fabric}

func TestSimChecks(t *testing.T) {
	cfg := config{seed: 2, seconds: 0.5, workDir: t.TempDir()}
	out, err := runSim(cfg, short, pinnedDigests)
	if err != nil {
		t.Fatal(err)
	}
	if out.attempted < 2 || out.failed != 0 {
		t.Fatalf("attempted %d failed %d, want repeats that agree: %v", out.attempted, out.failed, out.notes)
	}
	for _, d := range endToEnd {
		if m, ok := out.metrics[d.name]; !ok || m.Unit != d.unit || !(m.Value > 0) {
			t.Errorf("metric %s = %+v, want a positive value in %s", d.name, m, d.unit)
		}
	}
}

// TestTamperedPinFailsEverything shows the correctness checks fire: a
// pinned digest that does not match drives failed_frac to 1.
func TestTamperedPinFailsEverything(t *testing.T) {
	tampered := map[string]string{}
	for k, v := range pinnedDigests {
		tampered[k] = v[:len(v)-1] + "x"
	}
	tampered["short"] = "0000"
	cfg := config{seed: 1, seconds: 0.3, workDir: t.TempDir()}
	for name, run := range map[string]func() (*outcome, error){
		"sim":     func() (*outcome, error) { return runSim(cfg, short, tampered) },
		"preview": func() (*outcome, error) { return runPreview(cfg, tampered) },
		"batch":   func() (*outcome, error) { return runBatch(cfg, tampered) },
	} {
		if name == "batch" && testing.Short() {
			continue
		}
		out, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.attempted == 0 || out.failed != out.attempted {
			t.Errorf("%s: attempted %d failed %d, want every operation failed", name, out.attempted, out.failed)
		}
	}
}

func TestTracedSimReportsEveryLayer(t *testing.T) {
	cfg := config{seed: 2, seconds: 1, trace: true, workDir: t.TempDir()}
	out, err := runSim(cfg, short, pinnedDigests)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("traced run failed: %v", out.notes)
	}
	checkMetricSet(t, out, perLayer)
	if out.metrics["endnode.delivered_pkts"].Value <= 0 || out.metrics["sim.par_speedup"].Value <= 0 {
		t.Errorf("traced run missed the simulator layers: %+v", out.metrics)
	}
}

func checkMetricSet(t *testing.T, out *outcome, defs []metricDef) {
	t.Helper()
	if len(out.metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(out.metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := out.metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s = %+v (present %v), want unit %s", d.name, m, ok, d.unit)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the code in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var jsonNames []string
	for _, w := range doc.Workloads {
		jsonNames = append(jsonNames, w.Name)
	}
	if !reflect.DeepEqual(names, jsonNames) {
		t.Errorf("workloads: code %v, BENCHMARK.json %v", names, jsonNames)
	}
	for _, c := range []struct {
		defs []metricDef
		json []struct{ Name, Unit string }
	}{{endToEnd, doc.EndToEnd}, {perLayer, doc.PerLayer}} {
		if len(c.defs) != len(c.json) {
			t.Errorf("BENCHMARK.json lists %d metrics, the code %d", len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], code %s [%s]", i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}

func TestFingerprint(t *testing.T) {
	h := fingerprint()
	if h.NProc != runtime.NumCPU() || h.GOMAXPROCS < 1 || h.Go == "" || h.CPU == "" || h.Commit == "" || h.Source == "" {
		t.Errorf("incomplete fingerprint %+v", h)
	}
}

func TestStackStartStop(t *testing.T) {
	cfg := config{workDir: t.TempDir()}
	rec := newServiceRec(nil)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		s, setup, err := startStack(stackDir(cfg, "test"), rec)
		if err != nil {
			t.Fatal(err)
		}
		t1 := time.Now()
		if err := s.close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("setup %v (measured %v), close %v", t1.Sub(t0), setup, time.Since(t1))
	}
}

func TestTracedPreviewReportsEveryLayer(t *testing.T) {
	cfg := config{seed: 2, seconds: 1, trace: true, workDir: t.TempDir()}
	out, err := runPreview(cfg, pinnedDigests)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("traced run failed: %v", out.notes)
	}
	checkMetricSet(t, out, perLayer)
	for _, name := range []string{"dispatch.claims", "runner.execute_p50_ms", "campaign.finalize_ms", "client.requests"} {
		if out.metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want the service layers measured", name, out.metrics[name].Value)
		}
	}
}
