package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"` // 0 = root
	Name   string  `json:"name"`
	Key    string  `json:"key,omitempty"` // run, campaign or job id
	Start  float64 `json:"start_us"`      // since the tracer's epoch
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) float64 {
	return float64(at.Sub(t.epoch)) / float64(time.Microsecond)
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, key string) int {
	if t == nil {
		return 0
	}
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key, Start: now, End: -1})
	return len(t.spans)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// record adds a span whose interval was measured elsewhere (a request
// timed by the transport, a job timed by the executor).
func (t *tracer) record(name string, parent int, key string, start, end time.Time) {
	if t == nil {
		return
	}
	s, e := t.since(start), t.since(end)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key, Start: s, End: e})
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is the total minus the part of each span's interval that
	// its child spans cover.
	SelfMS float64 `json:"self_ms"`
}

// selfTimes aggregates closed spans by name, in descending self time.
func (t *tracer) selfTimes() []spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*spanStat{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.TotalMS += d / 1000
		st.SelfMS += (d - covered(s, children[s.ID])) / 1000
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// writeTrace writes the spans, their self times, the host fingerprint
// and the metrics to one JSON file under the work directory.
func writeTrace(cfg config, name string, h host, out *outcome) (string, error) {
	dir := filepath.Join(cfg.workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	doc := struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Host     host              `json:"host"`
		Metrics  map[string]metric `json:"metrics"`
		Self     []spanStat        `json:"self_times"`
		Spans    []span            `json:"spans"`
	}{Workload: name, Seed: cfg.seed, Host: h, Metrics: out.metrics}
	if out.spans != nil {
		doc.Self = out.spans.selfTimes()
		doc.Spans = out.spans.spans
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.json", name, cfg.seed, os.Getpid()))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	for _, st := range doc.Self {
		out.note("span %-26s n=%-5d total %10.2f ms  self %10.2f ms", st.Name, st.Count, st.TotalMS, st.SelfMS)
	}
	return path, nil
}
