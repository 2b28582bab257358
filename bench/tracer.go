package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/rda"
)

// kind is an rda call the op loop makes.
type kind int

const (
	kindBegin kind = iota
	kindRead
	kindWrite
	kindCommit
	kindAbort
	kindCheckpoint
	nKinds
)

var kindNames = [nKinds]string{"rda.begin", "rda.read", "rda.write", "rda.commit", "rda.abort", "rda.checkpoint"}

// sampleEvery is the span sampling rate: every call is timed into its
// kind's accumulator, but full span records are kept for every 64th
// transaction only (plus every checkpoint, restart and rebuild), which
// bounds memory on the 5 M-call workloads.
const sampleEvery = 64

// span is one traced interval.  Times are nanoseconds since the run's
// epoch; Parent is the id of the span that caused it (0 = none); spans of
// one transaction share Txn.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Txn    uint64 `json:"txn,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanIDs hands out span ids across the drivers' tracers.
type spanIDs struct{ next atomic.Int64 }

// tracer times the rda calls of one driver.  A nil tracer, or one that
// is switched off, costs the op loop one predictable branch per call.
type tracer struct {
	on    bool
	epoch time.Time
	ids   *spanIDs
	// phase is the id of the span new transaction spans hang under.
	phase int64

	count [nKinds]int64
	busy  [nKinds]time.Duration
	// outside is the time between the end of one call and the start of
	// the next: the benchmark's own loop.  lastEnd is where it resumes.
	outside time.Duration
	lastEnd time.Time

	txns  int64
	cur   []int // per stream: index into spans of the sampled txn span, -1 if unsampled
	spans []span
}

func newTracer(epoch time.Time, ids *spanIDs, streams int) *tracer {
	t := &tracer{epoch: epoch, ids: ids, cur: make([]int, streams)}
	for s := range t.cur {
		t.cur[s] = -1
	}
	return t
}

func (t *tracer) active() bool { return t != nil && t.on }

// enable switches call timing on or off at a slice boundary.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on, t.lastEnd = on, time.Now()
	}
}

// call accounts one finished rda call that began at t0 on stream s.
func (t *tracer) call(k kind, s int, t0 time.Time) {
	if !t.active() {
		return
	}
	now := time.Now()
	t.count[k]++
	t.busy[k] += now.Sub(t0)
	t.outside += t0.Sub(t.lastEnd)
	t.lastEnd = now
	if i := t.cur[s]; i >= 0 {
		end := now.Sub(t.epoch).Nanoseconds()
		t.spans[i].End = end
		t.spans = append(t.spans, span{
			ID: t.ids.next.Add(1), Parent: t.spans[i].ID, Name: kindNames[k], Txn: t.spans[i].Txn,
			Start: t0.Sub(t.epoch).Nanoseconds(), End: end,
		})
	}
}

// begin accounts a Begin call and opens a transaction span for every
// sampleEvery-th transaction.
func (t *tracer) begin(s int, t0 time.Time, tx *rda.Tx) {
	if !t.active() {
		return
	}
	if t.txns%sampleEvery == 0 && tx != nil {
		t.cur[s] = len(t.spans)
		t.spans = append(t.spans, span{
			ID: t.ids.next.Add(1), Parent: t.phase, Name: "txn", Txn: tx.ID(),
			Start: t0.Sub(t.epoch).Nanoseconds(),
		})
	}
	t.txns++
	t.call(kindBegin, s, t0)
}

// end accounts the EOT call and closes the stream's transaction span.
func (t *tracer) end(k kind, s int, t0 time.Time) {
	if t == nil {
		return
	}
	t.call(k, s, t0)
	t.cur[s] = -1
}

// checkpoint accounts a checkpoint the harness issued between two calls
// of the loop, and keeps its span.
func (t *tracer) checkpoint(phase int64, t0, t1 time.Time) {
	if t == nil {
		return
	}
	t.record(kindNames[kindCheckpoint], phase, t0, t1)
	if t.on {
		t.count[kindCheckpoint]++
		t.busy[kindCheckpoint] += t1.Sub(t0)
		t.outside += t0.Sub(t.lastEnd)
		t.lastEnd = t1
	}
}

// record adds a span the run code timed itself (phases, checkpoints,
// restarts, rebuilds) and returns its id; 0 on an untraced run.
func (t *tracer) record(name string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	id := t.ids.next.Add(1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// writeSpans writes the tracers' spans to <dir>/trace-<workload>.json.
func writeSpans(dir, workload string, tracers []*tracer) error {
	var all []span
	for _, t := range tracers {
		all = append(all, t.spans...)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), buf, 0o644)
}
