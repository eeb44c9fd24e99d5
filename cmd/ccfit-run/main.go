// Command ccfit-run is the one campaign CLI. Every mode declares its
// simulations as experiments.Spec campaigns, validates them up front,
// runs them through the parallel runner (or on a ccfit-serve instance
// with -server) and renders the results in deterministic order, so
// parallel, cached and remote runs print byte-identical output.
//
// Its three modes, and the single-mode commands they replace:
//
//	ccfit-run [-seeds N] [id ...]                  # was ccfit-figures [-seeds N] [id ...]
//	ccfit-run -sweep P [-schemes S] E              # was ccfit-sweep -exp E -param P [-scheme S]
//	ccfit-run -loadcurve C [-loads L] [-ms M]      # was ccfit-loadcurve -config C [-loads L] [-ms M]
//	ccfit-run -server http://127.0.0.1:8080 fig7a  # any mode, run on a ccfit-serve instance
//	ccfit-run -list                                # valid experiment ids
//
// Figures mode prints the paper's tables and time series for the given
// experiments (default: the paper evaluation); -seeds N > 1 prints
// mean±sd tables. -sweep is the Section III-E sensitivity study: one
// parameter of one scheme (default CCFIT) takes each value of a fixed
// table on one experiment, one campaign per value. -loadcurve prints
// accepted versus offered load of uniform traffic on configuration 2
// or 3 per scheme, -ms simulated milliseconds per point (0 = 1 ms).
//
// With -csv DIR each figure also writes a CSV, and a JSON run manifest
// (runs, outcomes, timings, cache keys) lands in DIR/manifest.json (or
// wherever -manifest points). With -server URL both sides expand the
// same specs with the same deterministic function and results come
// back in cell order, so the output matches a local run byte for byte.
//
// SIGINT/SIGTERM cancel the campaign gracefully: in-flight jobs stop,
// completed results still render, and the manifest (with cancelled
// entries) is still written.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	ccfit "repro"
	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/runner"
)

// A plan is what one invocation runs: its campaigns, and how to render
// their results (in campaign order, then cell order).
type plan struct {
	subs   []campaign.Submission
	render func(results []ccfit.JobResult)
}

func main() {
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel simulation workers")
	simWorkers := flag.Int("sim-workers", 1, "partitioned-engine shard workers per simulation (1 = serial; results are byte-identical at any value)")
	seed := flag.Int64("seed", 1, "base simulation seed")
	seeds := flag.Int("seeds", 1, "replications per scheme (seeds seed..seed+N-1); >1 prints mean±sd tables")
	schemesFlag := flag.String("schemes", "", "comma-separated scheme override (default: each experiment's own set; CCFIT for -sweep; "+defaultLoadCurveSchemes+" for -loadcurve)")
	sweepParam := flag.String("sweep", "", "sweep this scheme parameter on one experiment ("+strings.Join(sweepNames(), ", ")+")")
	loadCurve := flag.Int("loadcurve", 0, "print the accepted-vs-offered load curve of uniform traffic on network configuration 2 or 3")
	loadsFlag := flag.String("loads", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0", "offered loads for -loadcurve (fractions of the link rate)")
	timeout := flag.Duration("timeout", 0, "per-job wall-clock timeout (0 = none)")
	faultsPath := flag.String("faults", "", "inject a deterministic fault script into every job (JSON; see scripts/faults/)")
	watchdog := flag.Int64("watchdog", 0, "forward-progress watchdog window in cycles (0 = default 262144, -1 = disable)")
	retries := flag.Int("retries", 0, "retry transient job failures up to N times (invariant violations are never retried)")
	retryBackoff := flag.Duration("retry-backoff", 100*time.Millisecond, "base delay before the first retry (doubles per attempt)")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory (empty = caching off)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "after the run, evict least-recently-used cache entries beyond this size (0 = unbounded)")
	serverURL := flag.String("server", "", "submit the campaign to a ccfit-serve instance at this URL instead of running in-process")
	ms := flag.Float64("ms", 0, "truncate every experiment to this many simulated milliseconds (quick previews; distinct cache keys); with -loadcurve, the milliseconds per point (0 = 1 ms)")
	csvDir := flag.String("csv", "", "also write one CSV per experiment into this directory")
	manifestPath := flag.String("manifest", "", "write the JSON run manifest here (default: <csv>/manifest.json when -csv is set)")
	summary := flag.Bool("summary", true, "print per-scheme congestion-management counters")
	list := flag.Bool("list", false, "list valid experiment ids and exit")
	verbose := flag.Bool("v", false, "stream per-job progress lines to stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memProfile := flag.String("memprofile", "", "write a post-campaign heap profile to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ccfit-run [flags] [experiment ...]\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "run 'ccfit-run -list' for the valid experiment ids\n")
	}
	flag.Parse()

	if *list {
		printList(os.Stdout)
		return
	}

	ids := flag.Args()
	var schemes []string
	if *schemesFlag != "" {
		for _, s := range strings.Split(*schemesFlag, ",") {
			schemes = append(schemes, strings.TrimSpace(s))
		}
	}
	// Conflicting modes are usage errors, reported before anything runs.
	switch {
	case *sweepParam != "" && *loadCurve != 0:
		usage("-sweep and -loadcurve are exclusive")
	case *sweepParam != "" && len(ids) != 1:
		usage("-sweep takes exactly one experiment id")
	case *sweepParam != "" && len(schemes) > 1:
		usage("-sweep takes at most one scheme")
	case *loadCurve != 0 && len(ids) > 0:
		usage("-loadcurve takes no experiment ids")
	case *loadCurve != 0 && *seeds > 1:
		usage("-loadcurve runs one seed per point; -seeds must be 1")
	}

	opt := ccfit.RunOptions{Workers: *workers, Timeout: *timeout, Retries: *retries, RetryBackoff: *retryBackoff}
	if *cacheDir != "" {
		cache, err := ccfit.OpenResultCache(*cacheDir)
		if err != nil {
			fatal(err)
		}
		opt.Cache = cache
	}
	if *verbose {
		opt.Progress = ccfit.NewRunProgress(os.Stderr)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
		if *manifestPath == "" {
			*manifestPath = filepath.Join(*csvDir, "manifest.json")
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Every mode specializes this one submission. Local and remote runs
	// expand it with the same deterministic function, so result index i
	// is the same cell on both.
	base := campaign.Submission{Spec: experiments.Spec{
		Schemes: schemes, Seed: *seed, Seeds: *seeds, MS: *ms, SimWorkers: *simWorkers,
	}, Watchdog: *watchdog}
	// The runner applies the same cap itself; computing it here too makes
	// the adjustment visible instead of silent.
	if eff, capped := ccfit.EffectiveSimWorkers(*workers, *simWorkers, runtime.GOMAXPROCS(0)); capped && *serverURL == "" {
		fmt.Fprintf(os.Stderr, "ccfit-run: capping -sim-workers %d -> %d per job: %d campaign workers x %d sim workers would oversubscribe GOMAXPROCS=%d\n",
			*simWorkers, eff, *workers, *simWorkers, runtime.GOMAXPROCS(0))
	}
	if *faultsPath != "" {
		script, err := ccfit.LoadFaultScript(*faultsPath)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ccfit-run: fault script %q: %d event(s)\n", script.Name, len(script.Events))
		base.Faults = script
	}

	var p plan
	var err error
	switch {
	case *sweepParam != "":
		p, err = sweepPlan(base, *sweepParam, ids[0], *workers)
	case *loadCurve != 0:
		p, err = loadCurvePlan(base, *loadCurve, *loadsFlag, *workers)
	default:
		p, err = figuresPlan(base, ids, *summary, *csvDir)
	}
	if err != nil {
		fatal(err)
	}
	// Expanding every campaign up front validates all ids, schemes and
	// parameters before any simulation starts.
	var all []ccfit.Job
	jobs := make([][]ccfit.Job, len(p.subs))
	for i, sub := range p.subs {
		if jobs[i], err = sub.Jobs(); err != nil {
			fatal(err)
		}
		all = append(all, jobs[i]...)
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	startedAt := time.Now()
	var results []ccfit.JobResult
	var runErr error
	switch {
	case len(all) == 0:
		// Nothing to simulate (static tables only).
	case *serverURL != "":
		results, runErr = runRemote(ctx, *serverURL, p.subs, jobs, *verbose)
	default:
		results, runErr = ccfit.RunJobs(ctx, all, opt)
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
	if opt.Cache != nil {
		if *cacheMaxBytes > 0 {
			stats, gcErr := opt.Cache.GC(*cacheMaxBytes)
			switch {
			case gcErr != nil:
				fmt.Fprintf(os.Stderr, "ccfit-run: cache GC: %v\n", gcErr)
			case stats.Evicted > 0:
				fmt.Fprintf(os.Stderr, "ccfit-run: cache GC: evicted %d entries, freed %d bytes\n", stats.Evicted, stats.Freed)
			}
		} else if err := opt.Cache.FlushIndex(); err != nil {
			fmt.Fprintf(os.Stderr, "ccfit-run: cache index: %v\n", err)
		}
	}
	if runErr != nil && results == nil {
		fatal(runErr)
	}

	if *manifestPath != "" {
		m := runner.NewManifest("ccfit-run", opt, startedAt, results)
		if err := m.Write(*manifestPath); err != nil {
			fatal(err)
		}
	}

	p.render(results)

	if failed := ccfit.FailedJobs(results); len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "ccfit-run: %d job(s) failed:\n", len(failed))
		for _, f := range failed {
			if f.Quarantined {
				fmt.Fprintf(os.Stderr, "  %s: QUARANTINED (deterministic, not retried): %v\n", f.Job, f.Err)
				continue
			}
			fmt.Fprintf(os.Stderr, "  %s: %v\n", f.Job, f.Err)
		}
		os.Exit(1)
	}
	if runErr != nil {
		fatal(runErr)
	}
}

// figuresPlan runs the requested experiments (default: the paper
// evaluation) as one campaign and renders each in request order.
func figuresPlan(base campaign.Submission, ids []string, summary bool, csvDir string) (plan, error) {
	if len(ids) == 0 {
		for _, e := range ccfit.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	exps, err := ccfit.ResolveExperimentIDs(ids)
	if err != nil {
		return plan{}, err
	}
	base.Experiments = ids
	var p plan
	// A request of only static tables expands to zero cells but still renders.
	if slices.ContainsFunc(exps, func(e ccfit.Experiment) bool { return e.Kind != experiments.ConfigTable }) {
		p.subs = []campaign.Submission{base}
	}
	seedList := base.SeedList()
	p.render = func(results []ccfit.JobResult) {
		// Results are in cell order: experiment, then scheme, then seed.
		for _, exp := range exps {
			if exp.Kind == experiments.ConfigTable {
				ccfit.RenderTable1(os.Stdout)
				fmt.Println()
				continue
			}
			// The expanded job carries the experiment as run (truncated
			// by -ms), which is what the headers must describe.
			exp = *results[0].Job.Exp
			ss := base.Schemes
			if ss == nil {
				ss = exp.Schemes
			}
			perScheme := make([][]*ccfit.Result, len(ss))
			ok := true
			for i := range ss {
				rs, good := next(&results, len(seedList))
				perScheme[i], ok = rs, ok && good
			}
			if !ok {
				fmt.Fprintf(os.Stderr, "ccfit-run: skipping %s render: job failures (see below)\n", exp.ID)
				continue
			}
			if len(seedList) > 1 {
				var reps []*ccfit.Replication
				for i, s := range ss {
					rep, err := ccfit.AggregateSeeds(exp, s, perScheme[i])
					if err != nil {
						fatal(err)
					}
					reps = append(reps, rep)
				}
				ccfit.RenderReplications(os.Stdout, exp, reps)
				fmt.Println()
				continue
			}
			firstSeed := make([]*ccfit.Result, len(ss))
			for i := range ss {
				firstSeed[i] = perScheme[i][0]
			}
			switch exp.FlowIDs {
			case nil:
				ccfit.RenderThroughput(os.Stdout, exp, firstSeed)
			default:
				ccfit.RenderFlows(os.Stdout, exp, firstSeed)
			}
			if summary {
				ccfit.RenderSummary(os.Stdout, firstSeed)
			}
			// FCT tables only exist for finite-flow (datacenter) workloads;
			// RenderFCT is silent for pure CBR results.
			ccfit.RenderFCT(os.Stdout, firstSeed)
			if csvDir != "" {
				if err := writeCSV(filepath.Join(csvDir, exp.ID+".csv"), exp, firstSeed); err != nil {
					fatal(err)
				}
			}
			fmt.Println()
		}
	}
	return p, nil
}

// runRemote submits every campaign to a ccfit-serve instance, waits for
// each in turn (streaming progress when verbose), and reassembles the
// results in campaign and cell order against the locally expanded
// jobs. On SIGINT/SIGTERM the campaigns are cancelled.
func runRemote(ctx context.Context, base string, subs []campaign.Submission, jobs [][]ccfit.Job, verbose bool) ([]ccfit.JobResult, error) {
	client := &campaign.Client{Base: base}
	if err := client.Healthz(ctx); err != nil {
		return nil, fmt.Errorf("server %s unreachable: %w", base, err)
	}
	var fn func(campaign.Event) error
	if verbose {
		fn = func(ev campaign.Event) error {
			switch ev.Type {
			case "snapshot", "complete":
				fmt.Fprintf(os.Stderr, "ccfit-run: campaign %s: %s %d/%d (%s)\n", ev.Campaign, ev.Type, ev.Done, ev.Total, ev.Status)
			default:
				fmt.Fprintf(os.Stderr, "ccfit-run: [%d/%d] %-7s %s\n", ev.Done, ev.Total, ev.Type, ev.Job)
			}
			return nil
		}
	}
	var ids []string
	defer func() {
		if ctx.Err() == nil {
			return
		}
		// Drop queued jobs (finished campaigns ignore this); in-flight
		// ones drain on the server. Best-effort: may race shutdown.
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, id := range ids {
			_, _ = client.Cancel(cctx, id)
		}
	}()
	for _, sub := range subs {
		v, err := client.Submit(ctx, sub)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "ccfit-run: campaign %s submitted to %s (%d jobs)\n", v.ID, base, v.Total)
		ids = append(ids, v.ID)
	}
	var results []ccfit.JobResult
	for i, id := range ids {
		if _, err := client.Wait(ctx, id, fn); err != nil {
			return nil, err
		}
		rs, err := client.Results(ctx, id, jobs[i])
		if err != nil {
			return nil, err
		}
		results = append(results, rs...)
	}
	return results, nil
}

// next takes the results of one replication set (n seeds of one cell
// group) off the front of results; ok is false if any of them failed.
func next(results *[]ccfit.JobResult, n int) (rs []*ccfit.Result, ok bool) {
	for _, jr := range (*results)[:n] {
		if jr.Err == nil {
			rs = append(rs, jr.Result)
		}
	}
	*results = (*results)[n:]
	return rs, len(rs) == n
}

func printList(w *os.File) {
	fmt.Fprintln(w, "paper evaluation (run by default):")
	for _, e := range ccfit.Experiments() {
		fmt.Fprintf(w, "  %-10s %s\n", e.ID, e.Title)
	}
	fmt.Fprintln(w, "extras (run on request):")
	for _, e := range ccfit.ExtraExperiments() {
		fmt.Fprintf(w, "  %-10s %s\n", e.ID, e.Title)
	}
}

func writeCSV(path string, exp ccfit.Experiment, results []*ccfit.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	ccfit.WriteCSV(f, exp, results)
	return f.Close()
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "ccfit-run:", msg)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccfit-run:", err)
	os.Exit(1)
}
