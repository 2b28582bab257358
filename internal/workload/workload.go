// Package workload generates replayable transactional workloads as
// rda/trace traces: composable generators — uniform, YCSB-style zipfian
// hot-page skew, TPC-B-style banking transfers, sequential scan — with
// read/write-mix knobs, all driven by one seeded RNG so a (spec, seed)
// pair names a workload exactly.
//
// Generation mimics the engine's concurrency model the way the paper's
// own performance model does: up to 255 transaction streams interleave
// op by op (a random stream advances each step), so pages of
// still-active transactions face buffer-pool steals during replay
// exactly as they would under real concurrent load.  Because the trace
// is replayed single-threaded in trace order, the generator — not the
// lock manager — resolves conflicts: a planned transaction never
// touches a page another stream's open transaction holds, which keeps
// replays free of lock waits and deadlock aborts and therefore
// deterministic.  Contended picks are re-drawn, mirroring the model's
// assumption of independent working sets.
//
// The paper's communality parameter C (the probability a page request
// hits the buffer) is realized generator-side: with probability Hot a
// pick re-references a page from a recency window sized like the buffer
// pool, so the trace itself carries the locality and replays of one
// trace see the same hit rate on every geometry.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/record"
	"repro/rda"
	"repro/rda/trace"
)

// Profile fixes the shape of a generated workload: the database it
// addresses, its concurrency, and the model-equivalent mix parameters.
type Profile struct {
	// Mode selects page or record granularity ops.
	Mode trace.Mode
	// Streams is P, the number of interleaved transaction streams.
	Streams int
	// Transactions is the number of transactions to generate.
	Transactions int
	// PagesPerTx is s: page requests per transaction.
	PagesPerTx int
	// UpdateFraction is f_u: the fraction of update transactions.
	UpdateFraction float64
	// UpdateProb is p_u: the probability an accessed page is modified
	// (update transactions only).
	UpdateProb float64
	// AbortProb is p_b: the probability an update transaction ends in a
	// scripted abort.
	AbortProb float64
	// Hot approximates the communality C: the probability a pick
	// re-references a page from the recency window.
	Hot float64
	// Window is the recency window size in pages (≈ buffer frames).
	Window int
	// NumPages, PageSize and RecordSize describe the database the trace
	// addresses (RecordSize only in record mode).
	NumPages   int
	PageSize   int
	RecordSize int
	// Seed drives every random choice the generator makes.
	Seed int64
}

// validate applies defaults and sanity-checks the profile.  A zero count
// means its default; a negative one, or a probability outside [0,1], is
// an error.
func (p Profile) validate() (Profile, error) {
	if p.Streams < 0 || p.Streams > 255 {
		return p, fmt.Errorf("workload: streams must be 1-255, got %d", p.Streams)
	}
	if p.Streams == 0 {
		p.Streams = 1
	}
	if p.Window <= 0 {
		p.Window = 64
	}
	if p.NumPages <= 0 || p.PageSize <= 0 {
		return p, fmt.Errorf("workload: profile needs NumPages and PageSize")
	}
	if p.Mode == trace.ModeRecord && p.recordsPerPage() < 1 {
		return p, fmt.Errorf("workload: record mode needs a RecordSize that fits a page")
	}
	if p.PagesPerTx < 0 {
		return p, fmt.Errorf("workload: s must not be negative, got %d", p.PagesPerTx)
	}
	if p.PagesPerTx == 0 {
		p.PagesPerTx = 8
	}
	for _, f := range []struct {
		key string
		v   float64
	}{{"fu", p.UpdateFraction}, {"pu", p.UpdateProb}, {"pb", p.AbortProb}, {"hot", p.Hot}} {
		if !(f.v >= 0 && f.v <= 1) {
			return p, fmt.Errorf("workload: %s must be in [0,1], got %g", f.key, f.v)
		}
	}
	if p.Transactions <= 0 {
		return p, fmt.Errorf("workload: profile needs Transactions")
	}
	return p, nil
}

// recordsPerPage returns the slot capacity in record mode (0 in page
// mode).
func (p Profile) recordsPerPage() int {
	if p.Mode != trace.ModeRecord {
		return 0
	}
	return record.Capacity(p.PageSize, p.RecordSize)
}

// TxPlan is one planned transaction: its body ops (Begin and the EOT op
// are added by Generate), the distinct pages it touches (held against
// other streams until EOT) and whether it ends in a scripted abort.
type TxPlan struct {
	Body  []trace.Op
	Pages []uint32
	Abort bool
}

// Planner plans whole transactions for Generate.  PlanTx may fail
// (return ok=false) when every candidate page is held by another
// stream; Generate then advances other streams and retries later.
// Planners with semantic state (the banking book) apply a plan's
// effects at plan time for committing plans only — trace order
// guarantees replay applies them compatibly, because concurrent plans
// touch disjoint pages.
type Planner interface {
	// Name is the workload's spec name.
	Name() string
	// PlanTx plans one transaction.  busy reports pages held by other
	// streams' open transactions.
	PlanTx(r *rand.Rand, busy func(uint32) bool) (TxPlan, bool)
}

// Prologuer is implemented by planners that need setup transactions
// (the banking generator's account funding) emitted, serially on stream
// 0, before the workload body.
type Prologuer interface {
	Prologue() []TxPlan
}

// Generate interleaves the planner's transactions over the profile's
// streams and returns the finished trace.  The op sequence is a pure
// function of (profile, planner state, seed).
func Generate(prof Profile, pl Planner) (*trace.Trace, error) {
	prof, err := prof.validate()
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(prof.Seed))
	t := &trace.Trace{Header: trace.Header{
		Version:    trace.Version,
		Mode:       prof.Mode,
		Streams:    uint8(prof.Streams),
		NumPages:   uint32(prof.NumPages),
		PageSize:   uint32(prof.PageSize),
		RecordSize: uint32(prof.RecordSize),
		Seed:       prof.Seed,
		Spec:       pl.Name(),
	}}

	emitTx := func(stream uint8, plan TxPlan) {
		t.Ops = append(t.Ops, trace.Op{Kind: trace.OpBegin, Stream: stream})
		for _, op := range plan.Body {
			op.Stream = stream
			t.Ops = append(t.Ops, op)
		}
		eot := trace.OpCommit
		if plan.Abort {
			eot = trace.OpAbort
		}
		t.Ops = append(t.Ops, trace.Op{Kind: eot, Stream: stream})
	}

	if pro, ok := pl.(Prologuer); ok {
		for _, plan := range pro.Prologue() {
			emitTx(0, plan)
		}
	}

	// Per-stream state: the pending ops of the open transaction (EOT op
	// last) and the pages it holds.
	type stream struct {
		pending []trace.Op
		pages   []uint32
	}
	streams := make([]stream, prof.Streams)
	busy := make(map[uint32]int)
	holds := func(p uint32) bool { return busy[p] > 0 }

	planned, active, stalls := 0, 0, 0
	for planned < prof.Transactions || active > 0 {
		s := r.Intn(prof.Streams)
		st := &streams[s]
		if len(st.pending) == 0 {
			if planned >= prof.Transactions {
				continue // this stream is done; others still drain
			}
			plan, ok := pl.PlanTx(r, holds)
			if !ok {
				stalls++
				if stalls > 64*prof.Streams && active == 0 {
					return nil, fmt.Errorf("workload: %s cannot plan a transaction (database too small for the conflict-free interleave?)", pl.Name())
				}
				continue
			}
			stalls = 0
			planned++
			active++
			t.Ops = append(t.Ops, trace.Op{Kind: trace.OpBegin, Stream: uint8(s)})
			st.pending = append(st.pending[:0], plan.Body...)
			eot := trace.OpCommit
			if plan.Abort {
				eot = trace.OpAbort
			}
			st.pending = append(st.pending, trace.Op{Kind: eot})
			st.pages = plan.Pages
			for _, p := range plan.Pages {
				busy[p]++
			}
			continue
		}
		op := st.pending[0]
		st.pending = st.pending[1:]
		op.Stream = uint8(s)
		t.Ops = append(t.Ops, op)
		if op.Kind.IsEOT() {
			for _, p := range st.pages {
				busy[p]--
				if busy[p] == 0 {
					delete(busy, p)
				}
			}
			st.pages = nil
			active--
		}
	}
	return t, nil
}

// Interval runs one availability interval of spec on db — the paper's
// Section 5 measurement on the live engine.  It generates spec's trace for
// db's geometry (Window = BufferFrames, so the hot knob realizes the
// communality C; the engine's page and record sizes) and replays it with
// opts, whose MaxTransfers is the interval T.  The trace holds one
// transaction per two transfers of T, more than any of the model's
// workloads at C ≤ 0.9 reaches; a spec's txns key overrides that, and a
// trace that still runs out before T is trace.Replay's error.
func Interval(db *rda.DB, spec string, seed int64, opts trace.Options) (trace.Result, error) {
	cfg := db.Config()
	base := Profile{
		Mode:         trace.ModePage,
		Transactions: int(opts.MaxTransfers / 2),
		Window:       cfg.BufferFrames,
		NumPages:     db.NumPages(),
		PageSize:     cfg.PageSize,
		Seed:         seed,
	}
	if cfg.Logging == rda.RecordLogging {
		base.Mode, base.RecordSize = trace.ModeRecord, cfg.RecordSize
	}
	prof, pl, err := FromSpec(spec, base)
	if err != nil {
		return trace.Result{}, err
	}
	t, err := Generate(prof, pl)
	if err != nil {
		return trace.Result{}, err
	}
	return trace.Replay(db, t, opts)
}
