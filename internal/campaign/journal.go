package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// The journal is the scheduler's durable state: one append-only JSON
// Lines file per campaign under the data directory, named <id>.jsonl.
// The first record is the submission itself; after that, one record
// per terminal job transition and one for a cancellation. Nothing
// in-flight is journaled — a job with no terminal record simply runs
// again on restart, and the result cache turns any re-run of an
// already-finished cell into a hit, which is what makes replay cheap
// and byte-identical.
//
// Replay folds records in order, last record per job index wins, so an
// append after a resume (the same index finishing again) supersedes
// the stale state without compaction.

// record is one journal line.
type record struct {
	T string `json:"t"` // "submit" | "job" | "cancel" | "lease"
	// submit fields
	At  time.Time   `json:"at,omitempty"`
	ID  string      `json:"id,omitempty"`
	Sub *Submission `json:"sub,omitempty"`
	// job fields
	Index     int       `json:"i,omitempty"`
	Status    JobStatus `json:"s,omitempty"`
	Key       string    `json:"key,omitempty"`
	ElapsedMS float64   `json:"ms,omitempty"`
	Attempts  int       `json:"n,omitempty"`
	Error     string    `json:"err,omitempty"`
	// lease fields: which remote worker held job Index and what became
	// of the lease ("granted" | "expired" | "reclaimed"). Pure audit
	// trail — replay ignores lease records (the job's terminal state is
	// what matters), but they prove after the fact that a crashed
	// worker's job was reclaimed, not lost.
	W  string `json:"w,omitempty"`
	LS string `json:"ls,omitempty"`
}

// journal is an open per-campaign journal file.
type journal struct {
	mu sync.Mutex
	f  *os.File // guarded by mu
}

func journalPath(dir, id string) string {
	return filepath.Join(dir, id+".jsonl")
}

// createJournal starts a new campaign journal with its submit record,
// synced to disk before the campaign is acknowledged: an accepted
// submission survives an immediate crash.
func createJournal(dir, id string, sub Submission, at time.Time) (*journal, error) {
	f, err := os.OpenFile(journalPath(dir, id), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: creating journal: %w", err)
	}
	j := &journal{f: f}
	if err := j.append(record{T: "submit", At: at, ID: id, Sub: &sub}, true); err != nil {
		_ = f.Close()
		_ = os.Remove(journalPath(dir, id))
		return nil, err
	}
	return j, nil
}

// openJournal reopens an existing journal for appending (resume). If
// the file ends in a torn line (crash mid-append), a newline is healed
// in first — otherwise the next record would be concatenated onto the
// garbage and both lines would be lost to replay.
func openJournal(dir, id string) (*journal, error) {
	f, err := os.OpenFile(journalPath(dir, id), os.O_APPEND|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: reopening journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("campaign: reopening journal: %w", err)
	}
	if n := st.Size(); n > 0 {
		last := make([]byte, 1)
		if _, err := f.ReadAt(last, n-1); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("campaign: reopening journal: %w", err)
		}
		if last[0] != '\n' {
			if _, err := f.Write([]byte("\n")); err != nil {
				_ = f.Close()
				return nil, fmt.Errorf("campaign: healing torn journal tail: %w", err)
			}
		}
	}
	return &journal{f: f}, nil
}

// append writes one record as a JSON line; sync forces it to disk
// (submit and cancel records — job records are safe to lose, the
// cache re-serves them).
func (j *journal) append(r record, sync bool) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(append(data, '\n')); err != nil {
		return err
	}
	if sync {
		return j.f.Sync()
	}
	return nil
}

// close syncs the journal to disk and closes it: the campaign reached
// a terminal state, or the service is shutting down.
func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		_ = j.f.Close()
		return err
	}
	return j.f.Close()
}

// replayed is one campaign reconstructed from its journal.
type replayed struct {
	id        string
	sub       Submission
	submitted time.Time
	states    map[int]jobState // terminal job records, last wins
	cancelled bool
}

// replayJournal folds one journal file. A truncated trailing line
// (crash mid-append) is tolerated and ignored; a journal without a
// submit record is reported as corrupt.
func replayJournal(path string) (*replayed, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := &replayed{states: map[int]jobState{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			continue // torn tail write: ignore, state so far stands
		}
		switch r.T {
		case "submit":
			if r.Sub == nil {
				return nil, fmt.Errorf("campaign: %s: submit record without a spec", path)
			}
			out.id = r.ID
			out.sub = *r.Sub
			out.submitted = r.At
		case "job":
			out.states[r.Index] = jobState{
				Status: r.Status, Key: r.Key, ElapsedMS: r.ElapsedMS,
				Attempts: r.Attempts, Error: r.Error,
			}
		case "cancel":
			out.cancelled = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if out.id == "" {
		return nil, fmt.Errorf("campaign: %s: no submit record", path)
	}
	return out, nil
}

// listJournals returns the journal files under dir in id order.
func listJournals(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	return matches, nil
}
