package main

import (
	"fmt"
	"strconv"
	"strings"

	ccfit "repro"
	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/topo"
)

// defaultLoadCurveSchemes is the -loadcurve scheme set without -schemes.
const defaultLoadCurveSchemes = "1Q,VOQsw,DBBM,OBQA,FBICM,VOQnet"

// loadCurvePlan sweeps uniform traffic on configuration cfg from light
// load to saturation as one campaign, printing per (scheme, load) the
// accepted normalized throughput and latency percentiles: the context
// behind the paper's "inject at 100% of the link bandwidth". The spec
// validates config and load range.
func loadCurvePlan(base campaign.Submission, cfg int, loadsFlag string, workers int) (plan, error) {
	var loads []float64
	for _, s := range strings.Split(loadsFlag, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return plan{}, fmt.Errorf("bad load %q", s)
		}
		loads = append(loads, v)
	}
	if base.Schemes == nil {
		base.Schemes = strings.Split(defaultLoadCurveSchemes, ",")
	}
	ms := base.MS
	if ms <= 0 {
		ms = 1 // the spec's default
	}
	base.MS = 0 // MS truncates experiments; a load curve has its own
	base.LoadCurve = &experiments.LoadCurveSpec{Config: cfg, Loads: loads, MS: ms}
	base.Label = fmt.Sprintf("loadcurve config %d", cfg)

	render := func(results []ccfit.JobResult) {
		ft := topo.Config2()
		if cfg == 3 {
			ft = topo.Config3()
		}
		fmt.Printf("uniform load curve on %s (%g ms per point, seed %d, workers %d)\n", ft.Name, ms, base.SeedList()[0], workers)
		fmt.Printf("%-8s %-8s %-10s %-12s %-12s\n", "scheme", "offered", "accepted", "p50lat(ns)", "p99lat(ns)")
		// Expansion is scheme-major, then load.
		for _, name := range base.Schemes {
			for _, load := range loads {
				rs, ok := next(&results, 1)
				if !ok {
					continue
				}
				r := rs[0]
				// Steady state: skip the warm-up third.
				accepted := experiments.SteadyMean(r.Normalized, 2.0/3.0)
				fmt.Printf("%-8s %-8.2f %-10.3f %-12.0f %-12.0f\n",
					name, load, accepted, r.Summary.P50LatencyNS, r.Summary.P99LatencyNS)
			}
		}
	}
	return plan{subs: []campaign.Submission{base}, render: render}, nil
}
