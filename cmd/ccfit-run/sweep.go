package main

import (
	"fmt"
	"slices"

	ccfit "repro"
	"repro/internal/campaign"
	"repro/internal/sim"
)

// sweep describes one tunable: the values to try, how to apply one,
// and how to label it.
type sweep struct {
	name   string
	values []float64
	apply  func(p *ccfit.Params, v float64)
	label  func(v float64) string
}

// sweeps is the -sweep parameter table: the Section III-E tunables.
var sweeps = []sweep{
	{"numcfqs", []float64{1, 2, 4, 8}, func(p *ccfit.Params, v float64) { p.NumCFQs = int(v) }, num},
	// Stop threshold in MTUs; Go stays at 4.
	{"stopgo", []float64{6, 10, 16, 24}, func(p *ccfit.Params, v float64) { p.StopThreshold = int(v) * ccfit.MTU }, unit("stop=%gMTU")},
	{"detection", []float64{2, 4, 8, 16}, func(p *ccfit.Params, v float64) { p.DetectionThreshold = int(v) * ccfit.MTU }, unit("%gMTU")},
	{"markingrate", []float64{0.25, 0.5, 0.85, 1.0}, func(p *ccfit.Params, v float64) { p.MarkingRate = v }, num},
	{"cctitimer", []float64{2000, 4000, 8000, 16000}, func(p *ccfit.Params, v float64) { p.CCTITimer = sim.CyclesFromNS(v) }, unit("%gns")},
	// Cycles per CCT index.
	{"irdstep", []float64{4, 8, 16, 32}, func(p *ccfit.Params, v float64) { p.IRDStep = sim.Cycle(v) }, unit("%gcyc")},
	{"islip", []float64{1, 2, 4}, func(p *ccfit.Params, v float64) { p.ISlipIters = int(v) }, num},
	// Nanoseconds between BECNs per source.
	{"becnpacing", []float64{0, 2000, 4000, 8000}, func(p *ccfit.Params, v float64) { p.BECNPacing = sim.CyclesFromNS(v) }, unit("%gns")},
}

var num = unit("%g")

func unit(format string) func(float64) string {
	return func(v float64) string { return fmt.Sprintf(format, v) }
}

func sweepNames() []string {
	var names []string
	for _, s := range sweeps {
		names = append(names, s.name)
	}
	return names
}

// sweepPlan runs one campaign per valid value of the named parameter,
// each overriding the scheme preset on experiment id, and renders the
// steady-state (or burst-window) normalized throughput per value. A
// value that makes the parameter set invalid is reported as a row
// without consuming a simulation.
func sweepPlan(base campaign.Submission, param, id string, workers int) (plan, error) {
	i := slices.IndexFunc(sweeps, func(s sweep) bool { return s.name == param })
	if i < 0 {
		return plan{}, fmt.Errorf("unknown sweep parameter %q (valid: %v)", param, sweepNames())
	}
	sw := sweeps[i]
	scheme := "CCFIT"
	if len(base.Schemes) == 1 {
		scheme = base.Schemes[0]
	}
	type point struct {
		label  string
		reason error // non-nil: invalid value, no campaign
	}
	var points []point
	var p plan
	for _, v := range sw.values {
		params, err := ccfit.Scheme(scheme)
		if err != nil {
			return plan{}, err
		}
		sw.apply(&params, v)
		pt := point{label: sw.label(v), reason: params.Validate()}
		points = append(points, pt)
		if pt.reason != nil {
			continue
		}
		sub := base
		sub.Experiments = []string{id}
		sub.Schemes = []string{scheme}
		sub.Params = &params
		sub.Label = fmt.Sprintf("sweep %s=%s on %s/%s", sw.name, pt.label, id, scheme)
		p.subs = append(p.subs, sub)
	}

	seedList := base.SeedList()
	p.render = func(results []ccfit.JobResult) {
		fmt.Printf("ablation: %s on %s (%s), seeds %v, workers %d\n", sw.name, id, scheme, seedList, workers)
		// Only finite-flow (datacenter) experiments carry FCT stats, so
		// only their tables gain slowdown columns.
		hasFCT := slices.ContainsFunc(results, func(jr ccfit.JobResult) bool {
			return jr.Err == nil && jr.Result != nil && jr.Result.FCT != nil
		})
		if len(seedList) > 1 {
			fmt.Printf("%-12s %-16s %-10s %-16s", sw.name, "mean±sd", "worstBin", "delivered±sd")
		} else {
			fmt.Printf("%-12s %-10s %-10s %-10s", sw.name, "mean", "worstBin", "delivered")
		}
		if hasFCT {
			fmt.Printf(" %-12s %-12s", "fctP50", "fctP99")
		}
		fmt.Println()
		for _, pt := range points {
			if pt.reason != nil {
				fmt.Printf("%-12s invalid: %v\n", pt.label, pt.reason)
				continue
			}
			exp := *results[0].Job.Exp
			rs, ok := next(&results, len(seedList))
			if !ok {
				fmt.Printf("%-12s failed\n", pt.label)
				continue
			}
			// Replication statistics flow through the one shared path.
			rep, err := ccfit.AggregateSeeds(exp, scheme, rs)
			if err != nil {
				fatal(err)
			}
			// worstBin: the lowest per-bin normalized throughput, averaged
			// across seeds.
			worst := 0.0
			for _, r := range rs {
				w := 1.0
				for _, x := range r.Normalized {
					w = min(w, x)
				}
				worst += w
			}
			worst /= float64(len(rs))
			if len(seedList) > 1 {
				fmt.Printf("%-12s %6.3f ±%5.3f   %-10.3f %8.0f ±%6.0f",
					pt.label, rep.MeanNormalized, rep.StdNormalized, worst, rep.MeanDelivered, rep.StdDelivered)
				if hasFCT && rep.HasFCT {
					fmt.Printf(" %5.2f ±%4.2f %5.2f ±%4.2f", rep.MeanFCTP50, rep.StdFCTP50, rep.MeanFCTP99, rep.StdFCTP99)
				}
			} else {
				fmt.Printf("%-12s %-10.3f %-10.3f %-10.0f", pt.label, rep.MeanNormalized, worst, rep.MeanDelivered)
				if hasFCT && rep.HasFCT {
					fmt.Printf(" %-12.2f %-12.2f", rep.MeanFCTP50, rep.MeanFCTP99)
				}
			}
			fmt.Println()
		}
	}
	return p, nil
}
