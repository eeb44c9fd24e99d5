package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/dispatch"
	"repro/internal/runner"
)

// The service stack is what ccfit-serve and two ccfit-worker processes
// run, assembled in one process on a loopback listener with the
// shipped defaults: lease TTL 15 s, idle claim poll 100 ms doubling to
// 2 s, one slot per worker, each worker with its own result cache.
const (
	fleetSize       = 2
	schedWorkers    = fleetSize // one dispatched job in flight per worker slot
	registerTimeout = 10 * time.Second
)

// serviceRec collects what the benchmark observes around the service:
// HTTP requests (timing transport), job executions (timing executor).
type serviceRec struct {
	mu    sync.Mutex
	tr    *tracer // guarded by mu; nil until the traced phase
	reqs  []reqObs
	execs []execObs
}

// trace starts recording spans into tr.
func (r *serviceRec) trace(tr *tracer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tr = tr
}

type reqObs struct {
	route              string // method and path with ids replaced
	start, end         time.Time
	status             int // 0 = transport error
	reqBytes, respBody int64
}

type execObs struct {
	job        string
	start, end time.Time
	cached     bool
	failed     bool
	delivered  int64
}

func (r *serviceRec) marks() (int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.reqs), len(r.execs)
}

// since returns the requests and executions recorded after marks.
func (r *serviceRec) since(req, exec int) ([]reqObs, []execObs) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]reqObs(nil), r.reqs[req:]...), append([]execObs(nil), r.execs[exec:]...)
}

type spanParentKey struct{}

// withParent makes requests issued under ctx record their spans as
// children of span id.
func withParent(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, spanParentKey{}, id)
}

// timingTransport is the http.RoundTripper the benchmark puts into
// campaign.Client.HTTP and dispatch.Client.HTTP. A request ends when
// its response body has been read to the end or closed.
type timingTransport struct {
	next http.RoundTripper
	rec  *serviceRec
	// registered, when non-nil, receives a value for each successful
	// worker registration that passes through.
	registered chan<- struct{}
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	obs := reqObs{route: routeOf(req), start: start, reqBytes: req.ContentLength}
	parent, _ := req.Context().Value(spanParentKey{}).(int)
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		obs.end = time.Now()
		t.add(obs, parent)
		return nil, err
	}
	obs.status = resp.StatusCode
	if t.registered != nil && obs.route == "POST /dispatch/register" && resp.StatusCode == http.StatusOK {
		select {
		case t.registered <- struct{}{}:
		default: // a re-registration after set-up; nobody waits for it
		}
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func(n int64) {
		obs.end = time.Now()
		obs.respBody = n
		t.add(obs, parent)
	}}
	return resp, nil
}

func (t *timingTransport) add(o reqObs, parent int) {
	t.rec.mu.Lock()
	t.rec.reqs = append(t.rec.reqs, o)
	tr := t.rec.tr
	t.rec.mu.Unlock()
	tr.record("http "+o.route, parent, "", o.start, o.end)
}

// timedBody reports the bytes read when the body hits EOF or closes,
// whichever comes first.
type timedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err != nil {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.ReadCloser.Close()
}

// routeOf names a request by method and path, with campaign ids
// replaced so that requests of one kind aggregate.
func routeOf(req *http.Request) string {
	parts := strings.Split(strings.Trim(req.URL.Path, "/"), "/")
	if len(parts) >= 2 && parts[0] == "campaigns" {
		parts[1] = "{id}"
	}
	return req.Method + " /" + strings.Join(parts, "/")
}

// timingExecutor wraps a worker's runner.LocalExecutor and records
// each job's execution time.
type timingExecutor struct {
	next runner.Executor
	rec  *serviceRec
}

func (e *timingExecutor) Execute(ctx context.Context, job runner.Job, emit func(runner.Event)) runner.JobResult {
	start := time.Now()
	jr := e.next.Execute(ctx, job, emit)
	end := time.Now()
	o := execObs{job: job.String(), start: start, end: end, cached: jr.Cached, failed: jr.Err != nil}
	if jr.Result != nil {
		o.delivered = jr.Result.Summary.DeliveredPkts
	}
	e.rec.mu.Lock()
	e.rec.execs = append(e.rec.execs, o)
	tr := e.rec.tr
	e.rec.mu.Unlock()
	tr.record("runner.Execute", 0, o.job, start, end)
	return jr
}

// stack is one running service with its fleet and one client.
type stack struct {
	dir        string
	board      *dispatch.Board
	sched      *campaign.Scheduler
	srv        *http.Server
	served     chan error
	baseCancel context.CancelFunc
	client     *campaign.Client
	transports []*http.Transport
	stopFleet  context.CancelFunc
	fleet      sync.WaitGroup
	fleetErrs  chan error
}

func (s *stack) transport(rec *serviceRec, registered chan<- struct{}) *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	s.transports = append(s.transports, t)
	return &http.Client{Transport: &timingTransport{next: t, rec: rec, registered: registered}}
}

// startStack opens the cache, scheduler, board and listener and
// starts the fleet; it returns once both workers have registered. The
// returned duration is the set-up time.
func startStack(dir string, rec *serviceRec) (*stack, time.Duration, error) {
	t0 := time.Now()
	s := &stack{dir: dir, served: make(chan error, 1), fleetErrs: make(chan error, fleetSize)}
	cache, err := runner.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, 0, err
	}
	s.board = dispatch.NewBoard(dispatch.Options{LeaseTTL: 15 * time.Second, MaxReassign: 3})
	s.sched, err = campaign.Open(campaign.Options{
		Dir: filepath.Join(dir, "journal"), Cache: cache, Workers: schedWorkers, Dispatch: s.board,
	})
	if err != nil {
		s.board.Close()
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.sched.Close()
		s.board.Close()
		return nil, 0, err
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	s.baseCancel = baseCancel
	s.srv = &http.Server{
		Handler:     campaign.NewServer(s.sched),
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	s.client = &campaign.Client{Base: base, HTTP: s.transport(rec, nil)}
	registered := make(chan struct{}, fleetSize)

	fleetCtx, stop := context.WithCancel(context.Background())
	s.stopFleet = stop
	for i := 0; i < fleetSize; i++ {
		wcache, err := runner.OpenCache(filepath.Join(dir, fmt.Sprintf("worker%d-cache", i)))
		if err != nil {
			return nil, 0, withCloseErr(err, s.close())
		}
		w := &dispatch.Worker{
			Client: &dispatch.Client{Base: base, HTTP: s.transport(rec, registered)},
			Opt: dispatch.WorkerOptions{
				Name:  fmt.Sprintf("bench-worker-%d", i),
				Slots: 1,
				Exec:  &timingExecutor{next: &runner.LocalExecutor{Cache: wcache}, rec: rec},
			},
		}
		s.fleet.Add(1)
		go func() {
			defer s.fleet.Done()
			// A stop that lands while a worker's registration response
			// is still in flight ends Run with the context's error.
			if err := w.Run(fleetCtx); err != nil && !errors.Is(err, context.Canceled) {
				s.fleetErrs <- err
			}
		}()
	}
	timeout := time.After(registerTimeout)
	for i := 0; i < fleetSize; i++ {
		select {
		case <-registered:
		case <-timeout:
			return nil, 0, withCloseErr(errors.New("fleet did not register in time"), s.close())
		}
	}
	return s, time.Since(t0), nil
}

// close stops the fleet, drains the server and scheduler, and removes
// the stack's state. Removal can take seconds for a batch round's few
// thousand cache files; removing each stack's own keeps a run's total
// time bounded by its measured time, where leaving all of it to the end
// of the run doubled it.
func (s *stack) close() error {
	s.stopFleet()
	s.fleet.Wait()
	// Client side first: a connection the server has accepted but that
	// never carried a request would hold Shutdown for seconds.
	for _, t := range s.transports {
		t.CloseIdleConnections()
	}
	s.baseCancel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := []error{s.srv.Shutdown(ctx)}
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	errs = append(errs, s.sched.Close())
	s.board.Close()
	close(s.fleetErrs)
	for err := range s.fleetErrs {
		errs = append(errs, err)
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// timedEvent is a campaign event stamped on arrival at the client.
type timedEvent struct {
	campaign.Event
	at time.Time
}

// campaignRun is one campaign as the client saw it.
type campaignRun struct {
	id              string
	expand          time.Duration
	submit, decoded time.Time // Submit call start, Results decoded
	acked           time.Time // Submit call returned
	resultsCall     time.Duration
	events          []timedEvent
	results         []runner.JobResult
}

func (c *campaignRun) latency() time.Duration { return c.decoded.Sub(c.submit) }

// runCampaign does what campaign.Client.Run does, timing each call:
// expand the submission, submit it, follow its event stream to the
// end, fetch and decode the results.
func (s *stack) runCampaign(ctx context.Context, sub campaign.Submission, tr *tracer, key string) (*campaignRun, error) {
	c := &campaignRun{}
	root := tr.begin("campaign", 0, key)
	defer tr.end(root)

	sp := tr.begin("campaign.Submission.Jobs", root, key)
	t0 := time.Now()
	jobs, err := sub.Jobs()
	c.expand = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	c.submit = time.Now()
	sp = tr.begin("campaign.Client.Submit", root, key)
	v, err := s.client.Submit(withParent(ctx, sp), sub)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	c.id = v.ID
	c.acked = time.Now()

	sp = tr.begin("campaign.Client.Wait", root, v.ID)
	final, err := s.client.Wait(withParent(ctx, sp), v.ID, func(ev campaign.Event) error {
		c.events = append(c.events, timedEvent{Event: ev, at: time.Now()})
		return nil
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if final.Status != campaign.StatusDone {
		return nil, fmt.Errorf("campaign %s ended %s", v.ID, final.Status)
	}

	sp = tr.begin("campaign.Client.Results", root, v.ID)
	t0 = time.Now()
	c.results, err = s.client.Results(withParent(ctx, sp), v.ID, jobs)
	c.decoded = time.Now()
	c.resultsCall = c.decoded.Sub(t0)
	tr.end(sp)
	return c, err
}
