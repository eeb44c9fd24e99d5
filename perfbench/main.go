// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator or the campaign service, checks that
// every result is correct, and prints one JSON result line:
//
//	perfbench --workload fig8b_ccfit --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics, measured with
// tracing off. With --trace 1 the same workload runs once untraced and
// once traced (spans, CPU profile, allocation deltas) and the line
// carries the per-layer metrics. README.md lists the workloads, every
// metric and the end-to-end metric each layer metric should move.
//
// The benchmark sits outside the program: it only calls public
// functions of the experiments, network, route, runner, campaign and
// dispatch packages and reads their public counters.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives from the command line.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	workDir string // holds scratch state (removed by the run) and traces
}

// outcome is what a workload hands back: its operation tally, the
// metrics of the requested kind, and human-readable notes.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	notes             []string
	spans             *tracer // nil for untraced runs
}

// maxFailNotes bounds how many failures are described one by one.
const maxFailNotes = 20

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= maxFailNotes {
		o.notes = append(o.notes, "FAIL: "+fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// workload runs one named input set.
type workload struct {
	name string
	run  func(cfg config) (*outcome, error)
}

func workloads() []workload {
	return []workload{
		{"fig8b_ccfit", func(c config) (*outcome, error) { return runSim(c, fig8b, pinnedDigests) }},
		{"x512_par2", func(c config) (*outcome, error) { return runSim(c, x512, pinnedDigests) }},
		{"campaign_batch", func(c config) (*outcome, error) { return runBatch(c, pinnedDigests) }},
		{"campaign_preview", func(c config) (*outcome, error) { return runPreview(c, pinnedDigests) }},
	}
}

func main() {
	name := flag.String("workload", "", "workload to run (fig8b_ccfit, x512_par2, campaign_batch, campaign_preview)")
	seed := flag.Int64("seed", 1, "seed from which the workload's inputs are generated")
	seconds := flag.Float64("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	workDir := flag.String("work-dir", ".bench_build", "directory for scratch state and trace files")
	flag.Parse()

	if err := run(*name, config{seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: *workDir}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, cfg config) error {
	if cfg.seed < 1 {
		return fmt.Errorf("--seed must be at least 1, got %d", cfg.seed)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", cfg.seconds)
	}
	var w *workload
	for _, c := range workloads() {
		if c.name == name {
			c := c
			w = &c
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	abs, err := filepath.Abs(cfg.workDir)
	if err != nil {
		return err
	}
	cfg.workDir = abs
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return err
	}

	defer os.RemoveAll(stateDir(cfg))
	host := fingerprint()
	fmt.Printf("host: %s\n", mustJSON(host))
	start := time.Now()
	out, err := w.run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if out.attempted < 1 {
		return errors.New("workload attempted no operation")
	}
	if err := checkMetrics(out, cfg.trace); err != nil {
		return err
	}
	kind := "end_to_end"
	if cfg.trace {
		kind = "per_layer"
		path, err := writeTrace(cfg, name, host, out)
		if err != nil {
			return err
		}
		fmt.Printf("trace: %s\n", path)
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	fmt.Printf("%s %s seed=%d: %d attempted, %d failed, failed_frac=%.4g ratio, wall %.1f s\n",
		name, kind, cfg.seed, out.attempted, out.failed, float64(out.failed)/float64(out.attempted), time.Since(start).Seconds())
	names := make([]string, 0, len(out.metrics))
	for k := range out.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-28s %14.6g %s\n", k, out.metrics[k].Value, out.metrics[k].Unit)
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	fmt.Println(mustJSON(res))
	return nil
}

// checkMetrics requires exactly the metric set of the run's kind, with
// finite values; a run whose every operation failed may lack metrics.
func checkMetrics(out *outcome, trace bool) error {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if out.failed == out.attempted && len(out.metrics) == 0 {
		return nil
	}
	if len(out.metrics) != len(defs) {
		return fmt.Errorf("workload reported %d metrics, want %d", len(out.metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := out.metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s = %+v (reported %v), want a finite value in %s", d.name, m, ok, d.unit)
		}
	}
	return nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers are encoded
	}
	return string(b)
}
