package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/testutil"
	"repro/internal/topo"
)

// simSpec is a workload that drives one experiment cell through the
// library directly: exp.Build, Network.Run, experiments.Harvest.
type simSpec struct {
	name   string
	expID  string
	scheme string
	// workers is the SimWorkers of the measured cells; alt the worker
	// count the traced run compares against (same digest required).
	workers, alt int
	fabric       func() *topo.FatTree
	// ms shortens the simulated time (0 = the experiment's own).
	ms float64
}

// experiment resolves the cell's experiment and scheme.
func (w simSpec) experiment() (experiments.Experiment, core.Params, error) {
	exp, err := experiments.ByID(w.expID)
	if err != nil {
		return exp, core.Params{}, err
	}
	if w.ms > 0 {
		exp.Duration = sim.CyclesFromMS(w.ms)
		exp.Bin = min(exp.Bin, exp.Duration)
	}
	p, err := experiments.SchemeByName(w.scheme)
	return exp, p, err
}

var (
	// fig8b: Config #3, Case #4 with four congestion trees, full 4 ms,
	// serial engine.
	fig8b = simSpec{name: "fig8b_ccfit", expID: "fig8b", scheme: "CCFIT", workers: 1, alt: 2, fabric: topo.Config3}
	// x512: Config #4 hotspot+victims, full 2 ms, two shard workers.
	x512 = simSpec{name: "x512_par2", expID: "x512hotspot", scheme: "CCFIT", workers: 2, alt: 1, fabric: topo.Config4}
)

// setupRepeats is how many extra builds precede the measured cells, so
// setup_s is a median even when only a few cells fit in a run.
const setupRepeats = 5

// runSlices is how many consecutive Network.Run calls a cell's
// simulated time is split into. Slice j of every cell in a run covers
// the same simulated interval, so the run can take each slice's median
// over its cells: a host stall of under a second then moves one cell's
// slice, not the reported time. Splitting leaves results unchanged (the
// digests are checked).
const runSlices = 100

// simCell is one executed cell.
type simCell struct {
	build, run, harvest time.Duration
	slices              []time.Duration // run, slice by slice
	delivered           int64
	digest              string
	net                 *network.Network
	peakMB              float64 // resident set size, while the cell ran
}

func (c simCell) total() time.Duration { return c.build + c.run + c.harvest }

// runHook wraps Network.Run in traced runs (CPU profile, allocation
// deltas); nil calls run directly.
type runHook func(run func())

// cell builds, runs and harvests one cell with the always-on invariant
// checker enabled. A violation panics inside Run; it is returned as an
// error.
func (w simSpec) cell(seed int64, workers int, tr *tracer, parent int, hook runHook) (c simCell, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s seed %d: panic: %v", w.name, seed, r)
		}
	}()
	exp, p, err := w.experiment()
	if err != nil {
		return c, err
	}
	key := fmt.Sprintf("%s/seed=%d/workers=%d", w.name, seed, workers)

	sp := tr.begin("experiments.Build", parent, key)
	t0 := time.Now()
	n, err := exp.Build(p, seed, exp.Bin, exp.Duration, experiments.BuildOpts{SimWorkers: workers})
	c.build = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return c, err
	}
	if n.Checker == nil {
		return c, fmt.Errorf("%s: invariant checker is disabled", w.name)
	}

	sp = tr.begin("network.Run", parent, key)
	run := func() {
		step := exp.Duration / runSlices
		for j := 0; j < runSlices; j++ {
			d := step
			if j == runSlices-1 {
				d = exp.Duration - step*(runSlices-1)
			}
			t := time.Now()
			n.Run(d)
			c.slices = append(c.slices, time.Since(t))
			c.run += c.slices[j]
		}
	}
	if hook != nil {
		hook(run)
	} else {
		run()
	}
	tr.end(sp)
	if v := n.Checker.Violations(); v != 0 {
		return c, fmt.Errorf("%s: %d invariant violations", w.name, v)
	}

	sp = tr.begin("experiments.Harvest", parent, key)
	t0 = time.Now()
	res := experiments.Harvest(exp, w.scheme, seed, n)
	c.harvest = time.Since(t0)
	tr.end(sp)

	c.delivered = res.Summary.DeliveredPkts
	if c.delivered <= 0 {
		return c, fmt.Errorf("%s: no packet delivered", w.name)
	}
	c.digest, err = testutil.JSONDigest(res)
	c.net = n
	return c, err
}

// digestCheck compares a cell's result digest with the pinned one at
// the default seed, and with the run's first cell at any other seed.
type digestCheck struct {
	want string
}

func newDigestCheck(pins map[string]string, name string, seed int64) *digestCheck {
	if seed == 1 {
		return &digestCheck{want: pins[name]}
	}
	return &digestCheck{}
}

func (d *digestCheck) check(got string) error {
	if d.want == "" {
		d.want = got
		return nil
	}
	if got != d.want {
		return fmt.Errorf("result digest %s, want %s", got, d.want)
	}
	return nil
}

func runSim(cfg config, w simSpec, pins map[string]string) (*outcome, error) {
	if cfg.trace {
		return traceSim(cfg, w, pins)
	}
	out := &outcome{}
	check := newDigestCheck(pins, w.name, cfg.seed)
	exp, p, err := w.experiment()
	if err != nil {
		return nil, err
	}
	var setup sample
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if _, err := exp.Build(p, cfg.seed, exp.Bin, exp.Duration, experiments.BuildOpts{SimWorkers: w.workers}); err != nil {
			return nil, err
		}
		setup = append(setup, secs(time.Since(t0)))
	}

	var cells []simCell
	start := time.Now()
	for out.attempted == 0 || time.Since(start).Seconds() < cfg.seconds {
		out.attempted++
		rss := watchRSS()
		c, err := w.cell(cfg.seed, w.workers, nil, 0, nil)
		peak, rerr := rss.finish()
		if rerr != nil {
			return nil, rerr
		}
		c.peakMB = peak
		if err == nil {
			err = check.check(c.digest)
		}
		if err != nil {
			out.fail("%v", err)
			continue
		}
		c.net = nil // keep one network alive at a time
		cells = append(cells, c)
		setup = append(setup, secs(c.build))
	}
	if len(cells) == 0 {
		return out, nil
	}
	// A cell's time is taken slice by slice: the median over the run's
	// cells of each Run slice, plus the median build and harvest.
	var build, harvest, raw, rss sample
	run := 0.0
	for _, c := range cells {
		rss = append(rss, c.peakMB)
		build = append(build, secs(c.build))
		harvest = append(harvest, secs(c.harvest))
		raw = append(raw, millis(c.total()))
	}
	for j := 0; j < runSlices; j++ {
		var sl sample
		for _, c := range cells {
			sl = append(sl, secs(c.slices[j]))
		}
		run += sl.median()
	}
	cellS := build.median() + run + harvest.median()
	out.set("setup_s", setup.median(), "s")
	out.set("peak_rss_mb", rss.median(), "MB")
	out.set("sim_pkts_per_s", float64(cells[0].delivered)/run, "pkt/s")
	out.set("jobs_per_s", 1/cellS, "jobs/s")
	out.set("request_p50_ms", cellS*1000, "ms")
	out.note("cells=%d, whole-cell ms %s, slice-median cell %.0f ms, result digest %s",
		len(cells), fmtSample(raw, "%.0f"), cellS*1000, check.want)
	return out, nil
}

// traceSim runs one untraced cell, one traced cell (spans, CPU
// profile, allocation deltas, counters) and one cell at the alternate
// worker count, whose digest must equal the others'.
func traceSim(cfg config, w simSpec, pins map[string]string) (*outcome, error) {
	out := &outcome{spans: newTracer()}
	zeroPerLayer(out)
	check := newDigestCheck(pins, w.name, cfg.seed)
	tr := out.spans
	runCell := func(workers int, traced bool, hook runHook) (simCell, bool) {
		out.attempted++
		var t *tracer
		root := 0
		if traced {
			t = tr
			root = t.begin("cell", 0, fmt.Sprintf("%s/seed=%d", w.name, cfg.seed))
			defer t.end(root)
		}
		c, err := w.cell(cfg.seed, workers, t, root, hook)
		if err == nil {
			err = check.check(c.digest)
		}
		if err != nil {
			out.fail("%s workers=%d: %v", w.name, workers, err)
			return c, false
		}
		return c, true
	}

	plain, ok1 := runCell(w.workers, false, nil)

	var ms0, ms1 runtime.MemStats
	var shares map[string]float64
	var samples int
	var profErr error
	hook := func(run func()) {
		prof, err := startCPUProfile()
		if err != nil {
			profErr = err
			run()
			return
		}
		runtime.ReadMemStats(&ms0)
		run()
		runtime.ReadMemStats(&ms1)
		shares, samples, profErr = prof.stop()
	}
	traced, ok2 := runCell(w.workers, true, hook)
	if profErr != nil {
		return nil, profErr
	}
	alt, ok3 := runCell(w.alt, false, nil)
	if !(ok1 && ok2 && ok3) {
		return out, nil
	}

	fab := w.fabric()
	var routeS, partS sample
	for i := 0; i < 3; i++ {
		sp := tr.begin("route.Compute", 0, w.name)
		t0 := time.Now()
		if _, err := route.Compute(fab.Topology, fab.DETTieBreak); err != nil {
			return nil, err
		}
		routeS = append(routeS, secs(time.Since(t0)))
		tr.end(sp)
		if w.workers > 1 {
			sp = tr.begin("network.MakePartition", 0, w.name)
			t0 = time.Now()
			if _, err := network.MakePartition(fab.Topology, w.workers); err != nil {
				return nil, err
			}
			partS = append(partS, secs(time.Since(t0)))
			tr.end(sp)
		}
	}
	out.set("experiments.build_s", secs(traced.build), "s")
	out.set("route.compute_s", routeS.median(), "s")
	if len(partS) > 0 {
		out.set("network.partition_s", partS.median(), "s")
	}
	out.set("network.run_s", secs(traced.run), "s")
	out.set("experiments.harvest_s", secs(traced.harvest), "s")
	d := float64(traced.delivered)
	out.set("sim.ns_per_pkt", float64(traced.run.Nanoseconds())/d, "ns")
	out.set("sim.allocs_per_pkt", float64(ms1.Mallocs-ms0.Mallocs)/d, "count")
	out.set("sim.alloc_bytes_per_pkt", float64(ms1.TotalAlloc-ms0.TotalAlloc)/d, "B")
	serial, par := plain.run, alt.run
	if w.workers > 1 {
		serial, par = alt.run, plain.run
	}
	out.set("sim.par_speedup", serial.Seconds()/par.Seconds(), "ratio")
	setShares(out, shares, samples)
	setCounters(out, traced.net)
	out.set("trace.overhead_frac", (traced.total().Seconds()-plain.total().Seconds())/plain.total().Seconds(), "ratio")
	out.note("untraced cell %.0f ms, traced cell %.0f ms, workers=%d run %.0f ms vs workers=%d run %.0f ms; all three digests %s",
		millis(plain.total()), millis(traced.total()), w.workers, millis(plain.run), w.alt, millis(alt.run), check.want)
	return out, nil
}

// setCounters reads the simulated work counts from a finished network.
// They are deterministic for a given seed.
func setCounters(out *outcome, n *network.Network) {
	var offered, delivered, stalls, becns, fwd, creditStalls, marked int
	for _, nd := range n.Nodes {
		s := nd.Stats()
		offered += s.Offered
		delivered += s.Delivered
		stalls += s.ThrottleStalls
		becns += s.BECNsSent
	}
	for _, sw := range n.Switches {
		s := sw.Stats()
		fwd += s.Forwarded
		creditStalls += s.CreditStalls
		marked += s.Marked
	}
	ds := n.DiscStatsSum()
	var busy float64
	now := float64(n.Eng.Now())
	for _, l := range n.LinkLoads() {
		busy += math.Round(l.Utilization * now)
	}
	for name, v := range map[string]int{
		"endnode.offered_pkts":     offered,
		"endnode.delivered_pkts":   delivered,
		"endnode.throttle_stalls":  stalls,
		"endnode.becns_sent":       becns,
		"switchfab.forwarded_pkts": fwd,
		"switchfab.credit_stalls":  creditStalls,
		"switchfab.marked":         marked,
		"core.detections":          ds.Detections,
		"core.cam_exhausted":       ds.CAMExhausted,
		"core.post_moves":          ds.PostMoves,
		"core.stops_sent":          ds.StopsSent,
		"core.max_cfqs":            ds.MaxCFQsInUse,
	} {
		out.set(name, float64(v), "count")
	}
	out.set("link.busy_cycles", busy, "count")
}
