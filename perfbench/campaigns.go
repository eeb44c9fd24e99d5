package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/testutil"
)

// warmResubmits is how often campaign_batch resubmits the cold
// campaign after it finished; every resubmitted cell is a cache hit.
const warmResubmits = 20

// extraSetups is how many stacks a service workload starts and stops
// besides the ones it measures on, so that setup_s is a median of many
// set-ups spread over the run: campaign_batch before each round,
// campaign_preview before its loop and after each chunk of campaigns.
const extraSetups = 5

// setupSamples starts and stops n stacks and returns their set-up
// times in seconds.
func setupSamples(cfg config, rec *serviceRec, n int) (sample, error) {
	// Start from a collected heap and a flushed disk: set-up is mostly
	// creating cache and journal directories (a few hundred µs), which a
	// background collection or the writeback of the run's own files
	// (the benchmark binary, the previous round's deletions) would slow.
	runtime.GC()
	syscall.Sync()
	var setups sample
	for i := 0; i < n; i++ {
		s, d, err := startStack(stackDir(cfg, "setup"), rec)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs(d))
		if err := s.close(); err != nil {
			return nil, err
		}
	}
	return setups, nil
}

// batchSubmission is campaign_batch's campaign: five short experiments
// under each one's schemes, twelve seeds each, 0.1 ms simulated: 216
// cells. Seed 1 gives cell seeds 1..12, seed 2 gives 13..24, and so on.
func batchSubmission(seed int64) campaign.Submission {
	return campaign.Submission{Spec: experiments.Spec{
		Experiments: []string{"fig7a", "fig9", "xfaultflap", "xleafincast", "xleafshuffle"},
		Seed:        1 + (seed-1)*12,
		Seeds:       12,
		MS:          0.1,
	}}
}

// previewSubmission is campaign_preview's i-th campaign: one fig7a
// CCFIT cell at 0.1 ms with a seed no other campaign of the run uses.
func previewSubmission(seed int64, i int) campaign.Submission {
	return campaign.Submission{Spec: experiments.Spec{
		Experiments: []string{"fig7a"},
		Schemes:     []string{"CCFIT"},
		Seed:        seed*100_000 + int64(i),
		Seeds:       1,
		MS:          0.1,
	}}
}

// reference runs every cell of sub through the library, with no
// service and no cache (exp.Build, Network.Run, experiments.Harvest:
// the steps of experiments.RunWith), and returns each result's digest
// in cell order and each cell's Harvest time in seconds.
func reference(sub campaign.Submission) (digests []string, harvest sample, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("reference run panicked: %v", r)
		}
	}()
	cells, err := sub.Spec.Expand()
	if err != nil {
		return nil, nil, err
	}
	for _, c := range cells {
		p, err := experiments.SchemeByName(c.Scheme)
		if err != nil {
			return nil, nil, err
		}
		n, err := c.Exp.Build(p, c.Seed, c.Exp.Bin, c.Exp.Duration, experiments.BuildOpts{})
		if err != nil {
			return nil, nil, err
		}
		n.Run(c.Exp.Duration)
		t0 := time.Now()
		r := experiments.Harvest(c.Exp, c.Scheme, c.Seed, n)
		harvest = append(harvest, secs(time.Since(t0)))
		d, err := testutil.JSONDigest(r)
		if err != nil {
			return nil, nil, err
		}
		digests = append(digests, d)
	}
	return digests, harvest, nil
}

// joinDigest condenses a list of digests into one, for pinning.
func joinDigest(ds []string) string {
	d, err := testutil.JSONDigest(ds)
	if err != nil {
		panic(err) // a []string always encodes
	}
	return d
}

// checkCells counts one operation per returned cell and fails the
// cells whose status, cache flag or result digest is wrong.
func checkCells(out *outcome, c *campaignRun, want []string, wantCached bool) {
	for i, jr := range c.results {
		out.attempted++
		switch {
		case jr.Err != nil || jr.Result == nil:
			out.fail("%s cell %d: error %v", c.id, i, jr.Err)
		case jr.Cached != wantCached:
			out.fail("%s cell %d: cached=%v, want %v", c.id, i, jr.Cached, wantCached)
		default:
			d, err := testutil.JSONDigest(jr.Result)
			if err != nil || i >= len(want) || d != want[i] {
				out.fail("%s cell %d (%s): result digest differs from the library's", c.id, i, jr.Job)
			}
		}
	}
}

func newServiceRec(tr *tracer) *serviceRec {
	r := &serviceRec{}
	r.trace(tr)
	return r
}

// stateDir holds the state of every stack the process starts; each
// stack removes its own, and the run removes whatever an error left.
func stateDir(cfg config) string {
	return filepath.Join(cfg.workDir, "state", fmt.Sprint(os.Getpid()))
}

func stackDir(cfg config, tag string) string {
	return filepath.Join(stateDir(cfg), fmt.Sprintf("%s-%d", tag, time.Now().UnixNano()))
}

// batchRound is one set-up, cold campaign and warm resubmissions.
type batchRound struct {
	setup    time.Duration
	cold     *campaignRun
	warm     []*campaignRun
	warmWall time.Duration // first resubmit to last results decoded
	reqMark  int
	execMark int
	peakMB   float64 // resident set size, while the round ran
}

func (r batchRound) wall() time.Duration { return r.cold.latency() + r.warmWall }

func batchRoundRun(cfg config, rec *serviceRec, tr *tracer, out *outcome, sub campaign.Submission, want []string, round int) (r *batchRound, err error) {
	rss := watchRSS()
	defer func() {
		peak, rerr := rss.finish()
		if r != nil {
			r.peakMB = peak
		}
		if err == nil {
			err = rerr
		}
	}()
	s, setup, err := startStack(stackDir(cfg, "batch"), rec)
	if err != nil {
		return nil, err
	}
	r = &batchRound{setup: setup}
	r.reqMark, r.execMark = rec.marks()
	ctx := context.Background()
	key := fmt.Sprintf("round%d/cold", round)
	r.cold, err = s.runCampaign(ctx, sub, tr, key)
	if err != nil {
		return nil, withCloseErr(err, s.close())
	}
	checkCells(out, r.cold, want, false)
	for i := 0; i < warmResubmits; i++ {
		c, err := s.runCampaign(ctx, sub, tr, fmt.Sprintf("round%d/warm%d", round, i))
		if err != nil {
			return nil, withCloseErr(err, s.close())
		}
		checkCells(out, c, want, true)
		if tr == nil {
			c.results = nil // checked; untraced rounds keep only timings
		}
		r.warm = append(r.warm, c)
	}
	r.warmWall = r.warm[len(r.warm)-1].decoded.Sub(r.warm[0].submit)
	return r, s.close()
}

// withCloseErr adds the error of closing a stack to the error that
// made the caller close it.
func withCloseErr(a, b error) error {
	if b == nil {
		return a
	}
	return fmt.Errorf("%w (closing the stack: %v)", a, b)
}

func runBatch(cfg config, pins map[string]string) (*outcome, error) {
	out := &outcome{}
	sub := batchSubmission(cfg.seed)
	rec := newServiceRec(nil)
	want, harvest, err := reference(sub)
	if err != nil {
		return nil, err
	}
	pinOK := cfg.seed != 1 || joinDigest(want) == pins["campaign_batch"]
	out.note("reference digest %s", joinDigest(want))
	if cfg.trace {
		return traceBatch(cfg, out, sub, want, harvest, pinOK)
	}
	var setups, coldRate, pktRate, warmRate, warmMS, rss sample
	start := time.Now()
	for rounds := 0; rounds == 0 || time.Since(start).Seconds() < cfg.seconds; rounds++ {
		extra, err := setupSamples(cfg, rec, extraSetups)
		if err != nil {
			return nil, err
		}
		setups = append(setups, extra...)
		r, err := batchRoundRun(cfg, rec, nil, out, sub, want, rounds)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs(r.setup))
		rss = append(rss, r.peakMB)
		coldRate = append(coldRate, float64(len(r.cold.results))/r.cold.latency().Seconds())
		pktRate = append(pktRate, float64(deliveredPkts(r.cold))/r.cold.latency().Seconds())
		warmRate = append(warmRate, float64(len(r.warm)*len(r.cold.results))/r.warmWall.Seconds())
		for _, w := range r.warm {
			warmMS = append(warmMS, millis(w.latency()))
		}
	}
	reqs, _ := rec.since(0, 0)
	stallNote(out, warmMS, reqs)
	finishService(out, pinOK, setups, rss, pktRate.median())
	out.set("jobs_per_s", coldRate.median(), "jobs/s")
	out.set("request_p50_ms", warmMS.median(), "ms")
	out.note("rounds=%d cold jobs_per_s per round %v", len(coldRate), fmtSample(coldRate, "%.0f"))
	out.note("cached_jobs_per_s=%.0f jobs/s (median of %d rounds); warm campaign p50 %.1f ms over %d campaigns",
		warmRate.median(), len(warmRate), warmMS.median(), len(warmMS))
	return out, nil
}

// failOnPin fails every operation of the run when the library's
// reference results differ from the pinned digest.
func failOnPin(out *outcome, pinOK bool) {
	if !pinOK {
		out.failed = out.attempted
		out.notes = append(out.notes, "FAIL: reference results differ from the pinned digest")
	}
}

// finishService sets the metrics every service workload reports the
// same way, and fails every operation when the pinned digest differs.
func finishService(out *outcome, pinOK bool, setups, rss sample, pktRate float64) {
	failOnPin(out, pinOK)
	out.set("setup_s", setups.median(), "s")
	out.note("setup %d samples: min %.2f median %.2f max %.2f ms", len(setups), setups.quantile(0)*1000, setups.median()*1000, setups.quantile(1)*1000)
	out.set("peak_rss_mb", rss.median(), "MB")
	out.set("sim_pkts_per_s", pktRate, "pkt/s")
}

// deliveredPkts sums the simulated packets delivered in a campaign's
// returned cells.
func deliveredPkts(c *campaignRun) int64 {
	var n int64
	for _, jr := range c.results {
		if jr.Result != nil {
			n += jr.Result.Summary.DeliveredPkts
		}
	}
	return n
}

// stallThresholdMS is the campaign latency above which a campaign
// counts as stalled in the notes.
const stallThresholdMS = 1000

// stallNote reports the slowest campaign, how many took longer than
// stallThresholdMS, and the slowest HTTP request with its route: the
// service's occasional multi-second stalls show here and stay in the
// metrics.
func stallNote(out *outcome, latMS sample, reqs []reqObs) {
	stalled := 0
	for _, v := range latMS {
		if v > stallThresholdMS {
			stalled++
		}
	}
	var slowest reqObs
	for _, r := range reqs {
		if r.end.Sub(r.start) > slowest.end.Sub(slowest.start) && !strings.HasSuffix(r.route, "/events") {
			slowest = r
		}
	}
	out.note("slowest campaign %.0f ms; %d of %d campaigns over %d ms; slowest request %s %.0f ms",
		latMS.quantile(1), stalled, len(latMS), stallThresholdMS, slowest.route, millis(slowest.end.Sub(slowest.start)))
}

// freshWork sums the simulated packets of the jobs the fleet actually
// ran (not served from a worker's cache) and returns each such job's
// packets per second of execution (jobs that delivered packets only).
func freshWork(execs []execObs) (int64, sample) {
	var pkts int64
	var rates sample
	for _, e := range execs {
		if !e.cached && !e.failed {
			pkts += e.delivered
			if e.delivered > 0 {
				rates = append(rates, float64(e.delivered)/e.end.Sub(e.start).Seconds())
			}
		}
	}
	return pkts, rates
}

func fmtSample(s sample, f string) string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = fmt.Sprintf(f, v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// traceBatch runs one untraced round and one traced round on fresh
// stacks and reports the traced round's per-layer metrics.
func traceBatch(cfg config, out *outcome, sub campaign.Submission, want []string, harvest sample, pinOK bool) (*outcome, error) {
	out.spans = newTracer()
	plain, err := batchRoundRun(cfg, newServiceRec(nil), nil, out, sub, want, 0)
	if err != nil {
		return nil, err
	}
	rec := newServiceRec(out.spans)
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	traced, err := batchRoundRun(cfg, rec, out.spans, out, sub, want, 1)
	shares, samples, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	zeroPerLayer(out)
	reqs, execs := rec.since(traced.reqMark, traced.execMark)
	runs := append([]*campaignRun{traced.cold}, traced.warm...)
	serviceLayers(out, runs, reqs, execs)
	setHitFrac(out, traced.warm)
	out.set("experiments.harvest_s", harvest.median(), "s")
	if err := cacheReplay(out, cfg, traced.cold.results); err != nil {
		return nil, err
	}
	setShares(out, shares, samples)
	out.set("trace.overhead_frac", (traced.wall().Seconds()-plain.wall().Seconds())/plain.wall().Seconds(), "ratio")
	failOnPin(out, pinOK)
	out.note("untraced round %.0f ms, traced round %.0f ms", millis(plain.wall()), millis(traced.wall()))
	return out, nil
}

func setShares(out *outcome, shares map[string]float64, samples int) {
	for _, l := range selfLayers {
		out.set("self."+l, shares[l], "ratio")
	}
	out.set("self.samples", float64(samples), "count")
}

// serviceLayers derives the service's per-layer metrics from one
// traced phase: the campaigns as the client saw them, the HTTP
// requests of client and fleet, and the fleet's job executions.
func serviceLayers(out *outcome, runs []*campaignRun, reqs []reqObs, execs []execObs) {
	execMS := map[string]float64{}
	var exec sample
	for _, e := range execs {
		if !e.cached && !e.failed {
			ms := millis(e.end.Sub(e.start))
			exec = append(exec, ms)
			execMS[e.job] = ms
		}
	}
	delivered, rates := freshWork(execs)
	out.set("endnode.delivered_pkts", float64(delivered), "count")
	if len(rates) > 0 {
		out.set("sim.ns_per_pkt", 1e9/rates.median(), "ns")
	}
	if len(exec) > 0 {
		out.set("runner.execute_p50_ms", exec.median(), "ms")
		out.set("runner.execute_p90_ms", exec.quantile(0.9), "ms")
	}

	var overhead, leaseWait, finalize, expand, results, latency sample
	for _, c := range runs {
		expand = append(expand, millis(c.expand))
		results = append(results, millis(c.resultsCall))
		latency = append(latency, millis(c.latency()))
		started := map[int]timedEvent{}
		var lastTerminal, complete time.Time
		// A job that started before the client subscribed to the event
		// stream has no start event; the Submit reply stands in for it.
		startOf := func(index int) time.Time {
			if s, ok := started[index]; ok {
				return s.at
			}
			return c.acked
		}
		for _, ev := range c.events {
			switch ev.Type {
			case "start":
				started[ev.Index] = ev
			case "lease":
				leaseWait = append(leaseWait, millis(ev.at.Sub(startOf(ev.Index))))
			case "done":
				if ms, ok := execMS[ev.Job]; ok {
					overhead = append(overhead, millis(ev.at.Sub(startOf(ev.Index)))-ms)
				}
				lastTerminal = ev.at
			case "cached", "failed", "quarantined", "cancelled":
				lastTerminal = ev.at
			case "complete":
				complete = ev.at
			}
		}
		if !lastTerminal.IsZero() && !complete.IsZero() {
			finalize = append(finalize, millis(complete.Sub(lastTerminal)))
		}
	}
	setMedian(out, "service.overhead_ms", overhead, "ms")
	setMedian(out, "dispatch.lease_wait_ms", leaseWait, "ms")
	setMedian(out, "campaign.finalize_ms", finalize, "ms")
	setMedian(out, "experiments.expand_ms", expand, "ms")
	setMedian(out, "campaign.results_ms", results, "ms")
	out.set("client.requests", float64(len(latency)), "count")
	if pct, v, ok := latency.tail(); ok {
		out.set("client.request_tail_ms", v, "ms")
		out.set("client.request_tail_pct", pct, "%")
	}

	var claim, result, resultBytes, submit, resultsBytes sample
	var claims, empty, heartbeats int
	for _, r := range reqs {
		ms := millis(r.end.Sub(r.start))
		switch r.route {
		case "POST /dispatch/claim":
			claims++
			claim = append(claim, ms)
			if r.status == 204 {
				empty++
			}
		case "POST /dispatch/result":
			result = append(result, ms)
			resultBytes = append(resultBytes, float64(r.reqBytes))
		case "POST /dispatch/heartbeat":
			heartbeats++
		case "POST /campaigns":
			submit = append(submit, ms)
		case "GET /campaigns/{id}/results":
			resultsBytes = append(resultsBytes, float64(r.respBody))
		}
	}
	setMedian(out, "dispatch.claim_ms", claim, "ms")
	out.set("dispatch.claims", float64(claims), "count")
	if claims > 0 {
		out.set("dispatch.claim_empty_frac", float64(empty)/float64(claims), "ratio")
	}
	setMedian(out, "dispatch.result_ms", result, "ms")
	setMedian(out, "dispatch.result_bytes", resultBytes, "B")
	out.set("dispatch.heartbeats", float64(heartbeats), "count")
	setMedian(out, "campaign.submit_ms", submit, "ms")
	setMedian(out, "campaign.results_bytes", resultsBytes, "B")
}

// setHitFrac sets the share of the runs' cells served from the
// service's result cache.
func setHitFrac(out *outcome, runs []*campaignRun) {
	var hits, cells int
	for _, c := range runs {
		for _, jr := range c.results {
			cells++
			if jr.Cached {
				hits++
			}
		}
	}
	if cells > 0 {
		out.set("cache.hit_frac", float64(hits)/float64(cells), "ratio")
	}
}

func setMedian(out *outcome, name string, s sample, unit string) {
	if len(s) > 0 {
		out.set(name, s.median(), unit)
	}
}

// cacheReplay times the runner's cache-key and cache calls on the
// traced phase's jobs and results, against a scratch cache.
func cacheReplay(out *outcome, cfg config, results []runner.JobResult) error {
	dir := stackDir(cfg, "cache-replay")
	defer os.RemoveAll(dir)
	c, err := runner.OpenCache(dir)
	if err != nil {
		return err
	}
	var key, put, get sample
	for _, jr := range results {
		if jr.Result == nil {
			continue
		}
		t0 := time.Now()
		k, err := runner.JobKey(jr.Job)
		key = append(key, usSince(t0))
		if err != nil {
			return err
		}
		t0 = time.Now()
		if err := c.Put(k, jr.Result); err != nil {
			return err
		}
		put = append(put, usSince(t0))
		t0 = time.Now()
		if _, ok, err := c.Get(k); err != nil || !ok {
			return fmt.Errorf("cache replay: get %s: ok=%v err=%v", k, ok, err)
		}
		get = append(get, usSince(t0))
	}
	setMedian(out, "runner.jobkey_us", key, "us")
	setMedian(out, "runner.cache_put_us", put, "us")
	setMedian(out, "runner.cache_get_us", get, "us")
	return nil
}

func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

// runPreview drives the closed loop: one client submits single-cell
// campaigns one after another to an otherwise idle fleet.
func runPreview(cfg config, pins map[string]string) (*outcome, error) {
	out := &outcome{}
	rec := newServiceRec(nil)
	if cfg.trace {
		s, _, err := startStack(stackDir(cfg, "preview"), rec)
		if err != nil {
			return nil, err
		}
		return tracePreview(cfg, out, s, rec, pins)
	}
	// Set-ups are spread over the run: some before the loop, more
	// between its chunks.
	setups, err := setupSamples(cfg, rec, extraSetups)
	if err != nil {
		return nil, err
	}
	s, d, err := startStack(stackDir(cfg, "preview"), rec)
	if err != nil {
		return nil, err
	}
	setups = append(setups, secs(d))
	more := func() error {
		extra, err := setupSamples(cfg, rec, extraSetups)
		setups = append(setups, extra...)
		return err
	}
	runs, wall, rss, err := previewLoop(s, nil, cfg.seed, 0, cfg.seconds, more)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	pinOK, _, err := checkPreview(out, cfg.seed, runs, pins)
	if err != nil {
		return nil, err
	}
	reqs, _ := rec.since(0, 0)
	var lat sample
	var pkts int64
	for _, c := range runs {
		lat = append(lat, millis(c.latency()))
		pkts += deliveredPkts(c)
	}
	finishService(out, pinOK, setups, rss, float64(pkts)/wall.Seconds())
	stallNote(out, lat, reqs)
	out.set("jobs_per_s", float64(len(runs))/wall.Seconds(), "jobs/s")
	out.set("request_p50_ms", lat.median(), "ms")
	if pct, v, ok := lat.tail(); ok {
		out.note("preview p50 %.1f ms, p%g %.1f ms, n=%d", lat.median(), pct, v, len(lat))
	} else {
		out.note("preview p50 %.1f ms, n=%d (too few for a tail)", lat.median(), len(lat))
	}
	return out, nil
}

// previewLoop submits campaigns first, first+1, ... until seconds have
// passed (at least one). After every previewChunk campaigns it calls
// between, when non-nil, whose time the loop does not count. It returns
// the campaigns, the loop's wall time and the resident-set peak of each
// chunk.
func previewLoop(s *stack, tr *tracer, seed int64, first int, seconds float64, between func() error) ([]*campaignRun, time.Duration, sample, error) {
	var runs []*campaignRun
	var peaks sample
	var paused time.Duration
	rss := watchRSS()
	start := time.Now()
	for i := first; len(runs) == 0 || (time.Since(start)-paused).Seconds() < seconds; i++ {
		c, err := s.runCampaign(context.Background(), previewSubmission(seed, i), tr, fmt.Sprintf("preview%d", i))
		if err != nil {
			_, _ = rss.finish()
			return nil, 0, nil, err
		}
		runs = append(runs, c)
		if len(runs)%previewChunk == 0 {
			peak, err := rss.finish()
			if err != nil {
				return nil, 0, nil, err
			}
			peaks = append(peaks, peak)
			if between != nil {
				t := time.Now()
				if err := between(); err != nil {
					return nil, 0, nil, err
				}
				paused += time.Since(t)
			}
			rss = watchRSS()
		}
	}
	wall := time.Since(start) - paused
	peak, err := rss.finish()
	if len(peaks) == 0 {
		peaks = append(peaks, peak)
	}
	return runs, wall, peaks, err
}

// previewChunk is how many preview campaigns share one resident-set
// watch.
const previewChunk = 20

// checkPreview checks every preview cell against the library's result
// and, at the default seed, the first cells against the pinned digest.
// It returns whether the pin holds and the reference runs' Harvest
// times.
func checkPreview(out *outcome, seed int64, runs []*campaignRun, pins map[string]string) (bool, sample, error) {
	var harvest sample
	for i, c := range runs {
		want, h, err := reference(previewSubmission(seed, i))
		if err != nil {
			return false, nil, err
		}
		harvest = append(harvest, h...)
		checkCells(out, c, want, false)
	}
	if seed != 1 {
		return true, harvest, nil
	}
	var firsts []string
	for i := 0; i < pinnedPreviewCells; i++ {
		want, _, err := reference(previewSubmission(seed, i))
		if err != nil {
			return false, nil, err
		}
		firsts = append(firsts, want...)
	}
	out.note("reference digest of the first %d cells %s", pinnedPreviewCells, joinDigest(firsts))
	return joinDigest(firsts) == pins["campaign_preview"], harvest, nil
}

// pinnedPreviewCells is how many leading preview cells the pinned
// digest covers.
const pinnedPreviewCells = 5

// tracePreview runs half the time untraced and half traced on the
// same stack, and reports the traced half's per-layer metrics.
func tracePreview(cfg config, out *outcome, s *stack, rec *serviceRec, pins map[string]string) (*outcome, error) {
	out.spans = newTracer()
	plain, _, _, err := previewLoop(s, nil, cfg.seed, 0, cfg.seconds/2, nil)
	if err != nil {
		return nil, withCloseErr(err, s.close())
	}
	rec.trace(out.spans)
	reqMark, execMark := rec.marks()
	prof, err := startCPUProfile()
	if err != nil {
		return nil, withCloseErr(err, s.close())
	}
	traced, _, _, err := previewLoop(s, out.spans, cfg.seed, len(plain), cfg.seconds/2, nil)
	shares, samples, perr := prof.stop()
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	pinOK, harvest, err := checkPreview(out, cfg.seed, append(plain, traced...), pins)
	if err != nil {
		return nil, err
	}
	failOnPin(out, pinOK)
	zeroPerLayer(out)
	reqs, execs := rec.since(reqMark, execMark)
	serviceLayers(out, traced, reqs, execs)
	setHitFrac(out, traced)
	out.set("experiments.harvest_s", harvest.median(), "s")
	var results []runner.JobResult
	for _, c := range traced {
		results = append(results, c.results...)
	}
	if err := cacheReplay(out, cfg, results); err != nil {
		return nil, err
	}
	setShares(out, shares, samples)
	var a, b sample
	for _, c := range plain {
		a = append(a, millis(c.latency()))
	}
	for _, c := range traced {
		b = append(b, millis(c.latency()))
	}
	out.set("trace.overhead_frac", (b.median()-a.median())/a.median(), "ratio")
	out.note("untraced p50 %.1f ms (n=%d), traced p50 %.1f ms (n=%d)", a.median(), len(a), b.median(), len(b))
	return out, nil
}
