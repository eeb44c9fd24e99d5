package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric of the result line and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, on every
// workload. README.md defines each one per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"sim_pkts_per_s", "pkt/s"},
	{"jobs_per_s", "jobs/s"},
	{"request_p50_ms", "ms"},
}

// perLayer are the metrics every traced run reports, on every
// workload; a layer the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"experiments.build_s", "s"},
		{"route.compute_s", "s"},
		{"network.partition_s", "s"},
		{"network.run_s", "s"},
		{"experiments.harvest_s", "s"},
		{"sim.ns_per_pkt", "ns"},
		{"sim.allocs_per_pkt", "count"},
		{"sim.alloc_bytes_per_pkt", "B"},
		{"sim.par_speedup", "ratio"},
	}
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"self." + l, "ratio"})
	}
	defs = append(defs, metricDef{"self.samples", "count"})
	for _, c := range []string{
		"endnode.offered_pkts", "endnode.delivered_pkts", "endnode.throttle_stalls", "endnode.becns_sent",
		"switchfab.forwarded_pkts", "switchfab.credit_stalls", "switchfab.marked",
		"core.detections", "core.cam_exhausted", "core.post_moves", "core.stops_sent", "core.max_cfqs",
		"link.busy_cycles",
	} {
		defs = append(defs, metricDef{c, "count"})
	}
	return append(defs,
		metricDef{"runner.execute_p50_ms", "ms"},
		metricDef{"runner.execute_p90_ms", "ms"},
		metricDef{"service.overhead_ms", "ms"},
		metricDef{"dispatch.claim_ms", "ms"},
		metricDef{"dispatch.claims", "count"},
		metricDef{"dispatch.claim_empty_frac", "ratio"},
		metricDef{"dispatch.result_ms", "ms"},
		metricDef{"dispatch.result_bytes", "B"},
		metricDef{"dispatch.heartbeats", "count"},
		metricDef{"dispatch.lease_wait_ms", "ms"},
		metricDef{"campaign.finalize_ms", "ms"},
		metricDef{"campaign.submit_ms", "ms"},
		metricDef{"campaign.results_ms", "ms"},
		metricDef{"campaign.results_bytes", "B"},
		metricDef{"experiments.expand_ms", "ms"},
		metricDef{"runner.jobkey_us", "us"},
		metricDef{"runner.cache_get_us", "us"},
		metricDef{"runner.cache_put_us", "us"},
		metricDef{"cache.hit_frac", "ratio"},
		metricDef{"client.request_tail_ms", "ms"},
		metricDef{"client.request_tail_pct", "%"},
		metricDef{"client.requests", "count"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}()

// zeroPerLayer starts a traced run's metrics at 0, the value a layer
// the workload does not exercise reports.
func zeroPerLayer(out *outcome) {
	for _, d := range perLayer {
		out.set(d.name, 0, d.unit)
	}
}

// rssWatch samples the process's resident set size (VmRSS) every
// rssEvery until stopped, keeping the largest value. Each measured unit
// of a workload (a simulator cell, a batch round, the preview loop)
// gets its own watch, started after debug.FreeOSMemory has handed the
// previous unit's memory back, so the reported peak is the median over
// units rather than one process-lifetime high-water mark that a single
// late garbage collection can set.
type rssWatch struct {
	stop chan struct{}
	done chan struct{}
	peak float64 // MB; written by the sampler, read after done
	err  error
}

const rssEvery = 5 * time.Millisecond

func watchRSS() *rssWatch {
	debug.FreeOSMemory()
	w := &rssWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			mb, err := rssMB()
			if err != nil {
				w.err = err
				return
			}
			w.peak = max(w.peak, mb)
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// finish stops the sampler and returns the peak in MB.
func (w *rssWatch) finish() (float64, error) {
	close(w.stop)
	<-w.done
	if w.err == nil {
		mb, err := rssMB()
		w.peak, w.err = max(w.peak, mb), err
	}
	return w.peak, w.err
}

// rssMB reads the process's current resident set size (VmRSS).
func rssMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("resident set size: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("resident set size: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("resident set size: no VmRSS in /proc/self/status")
}
