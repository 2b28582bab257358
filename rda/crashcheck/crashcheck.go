// Package crashcheck is the crash-and-recover checker for the RDA engine.
//
// The paper's central claim (Section 4) is that ONE redundancy mechanism
// makes the database recoverable from a crash at *any* instant, without
// UNDO log writes for stolen pages, and from the loss of a disk — at once.
// This package turns the claim into a machine-checked property, with one of
// each moving part (DESIGN.md, "Fault plane", has the family table):
//
//   - one cycle, Run: a deterministic seeded workload under a fault
//     schedule, then {CrashHard, Recover, VerifyRecovered} → online rebuild
//     → scrub cycle, repeated until no crash rule fires, then the
//     committed-state oracle (durability, no uncommitted data, atomicity of
//     the one interrupted commit, every read served clean) and a probe
//     transaction.  What the run may legally report is read off the
//     schedule (lawOf), never off the caller;
//   - one exhaustive enumerator, Sweep: the cut (Options.cut: a clean crash
//     or a tear) at every write index, with Options.Dead drives dead from
//     the start and with the last of them dying at the cut instead;
//   - one randomized loop, Soak, over three schedule generators (Crashes,
//     Mix, Corrupt).
//
// Every other dimension — layout, P+Q, ¬FORCE, record logging, scrubbing,
// a transient-error rate, engine workers, queue depth — is an Options
// field, so a cell of the fault space is one Options literal.  Workload,
// buffer manager and fault plane are deterministic: a failing run is
// identified completely by its options, seed and schedule, all of which
// print in a replayable syntax.
package crashcheck

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"

	"repro/internal/fault"
	"repro/internal/record"
	"repro/rda"
)

// Options configures a run, a sweep or a soak.
type Options struct {
	// Layout selects the array organization (DataStriping exercises
	// RAID5Twin, ParityStriping exercises ParityStripeTwin).
	Layout rda.Layout
	// Seed drives the workload generator (Soak: the master seed the
	// per-iteration seeds derive from).
	Seed int64
	// Txns is the number of transactions in the workload (default 8).
	Txns int
	// OpsPerTx is the number of page operations per transaction.  The
	// default of 10 exceeds the buffer pool's 6 frames so transactions
	// dirty more pages than fit, forcing mid-transaction eviction steals
	// through the paper's no-UNDO-logging path — the state the crash
	// sweep most needs to interrupt.
	OpsPerTx int
	// Frames is the buffer pool's size (default 6).  At 6 most pages are
	// evicted before EOT, so a commit rarely holds two resident pages of one
	// parity group; 16 keeps a transaction's pages resident and sends its
	// EOT flush through the per-group chain (rda's flushGroup).
	Frames int
	// Dead is the number of drives dead from the start (0, 1, or 2 with
	// QParity): Sweep runs its families under that many faildisk[d]@w0
	// rules, Soak prefixes every generated schedule with them and draws
	// indexes against the write clock of the workload so degraded.
	Dead int
	// Torn makes Sweep tear write k itself (half the payload and the full
	// header persist) instead of dropping it cleanly.
	Torn bool
	// Workers sets the engine's internal parallelism (rda.Config.Workers:
	// rebuild batches, recovery scans, bulk loads).  The workload itself
	// stays single-threaded, so the crash index of a schedule still
	// addresses a deterministic write; with Workers > 1 the *recovery and
	// rebuild* write order is scheduler-dependent, so sweeps exercise the
	// invariants under many interleavings rather than replaying one.
	// 0 means the engine default (1, fully deterministic).
	Workers int
	// Scrub interleaves the online scrubber with the workload: one
	// ScrubStep after every transaction, so verification reads (and the
	// repair writes they trigger) mix with live commits and schedule
	// rules can land inside scrub I/O.  The run then ends with a full
	// scrub cycle (as does any run whose schedule plants a silent fault).
	Scrub bool
	// QParity runs on a P+Q (RAID-6 style) array: two redundancy equations
	// per group, so two overlapping erasures stay within budget.
	QParity bool
	// QueueDepth sets the engine's per-drive request queue depth
	// (rda.Config.QueueDepth).  With a depth > 1 the async pipeline is
	// on: fault injectors observe transfers at queue-DEQUEUE time, so a
	// CrashAfterNWrites(k) schedule crashes at the k-th *dequeued* write
	// — the sweep then covers every dequeue index.  The pipeline's
	// intra-operation batches (overlapped RMW reads, full-stripe data
	// writes) make the dequeue interleaving scheduler-dependent, so as
	// with Workers > 1 the sweep exercises the recovery invariants under
	// many interleavings rather than replaying one byte-stable schedule.
	// 0 or 1 keeps the synchronous drive model (dequeue order == submit
	// order, byte-replayable).
	QueueDepth int
	// NoForce runs the engine ¬FORCE (rda.NoForce): commits leave their
	// pages in the buffer, so a restart has winners to REDO.  The workload
	// then takes an action-consistent checkpoint after every fourth
	// transaction and at its end — part of the write clock, so the sweeps
	// crash inside checkpoints too — and the oracle's raw platter peeks
	// follow a checkpoint.
	NoForce bool
	// Records runs the engine with record logging: every write of the
	// workload is a WriteRecord of one slot, the oracle keeps the page
	// images those slot writes produce, and REDO under NoForce replays
	// record images (several per page) instead of page images.
	Records bool
	// TransientEvery, when positive, fails every n-th disk access once with
	// a transient error for the whole run, recovery included.  The retry
	// layer must mask every one: the run fails if any surfaces, or if
	// faults were injected and no retry was recorded.
	TransientEvery int64
}

// cut is the rule an exhaustive sweep stops the run with at write k: a
// clean crash, or in torn mode a tear of write k itself, alternating which
// half of the payload persists so both torn shapes are covered.
func (o *Options) cut(k int64) fault.Rule {
	if o.Torn {
		return fault.TornWrite(k, k%2 == 0)
	}
	return fault.CrashAfterNWrites(k)
}

// budget is the number of erasures one parity group absorbs: one equation
// on twin parity, two on P+Q.
func (o *Options) budget() int {
	if o.QParity {
		return 2
	}
	return 1
}

func (o *Options) fill() {
	if o.Txns <= 0 {
		o.Txns = 8
	}
	if o.OpsPerTx <= 0 {
		o.OpsPerTx = 10
	}
	if o.Frames <= 0 {
		o.Frames = 6
	}
}

// dbConfig is the explorer's geometry: small enough that an exhaustive
// sweep stays cheap, with — by default — fewer buffer frames than the
// working set so eviction steals (the paper's no-UNDO-logging path)
// actually happen.
func dbConfig(opts Options) rda.Config {
	opts.fill()
	cfg := rda.Config{
		DataDisks:    4,
		NumPages:     numPages,
		PageSize:     pageSize,
		BufferFrames: opts.Frames,
		Layout:       opts.Layout,
		Logging:      rda.PageLogging,
		EOT:          rda.Force,
		RDA:          true,
		QParity:      opts.QParity,
		LogPageSize:  256,
		LogWriteCost: 4,
		Workers:      opts.Workers,
		QueueDepth:   opts.QueueDepth,
	}
	if opts.NoForce {
		cfg.EOT = rda.NoForce
	}
	if opts.Records {
		cfg.Logging = rda.RecordLogging
		cfg.RecordSize = recordSize
	}
	return cfg
}

// The explorer's page geometry, which the Corrupt generator also draws its
// operands against; recordSize is the Records workload's record length,
// seven slots on a page.
const (
	numPages   = 48
	pageSize   = 64
	recordSize = 8
)

// Violation is one failed crash-and-recover run, identified by the seed
// and schedule that reproduce it.
type Violation struct {
	Seed     int64
	Schedule fault.Schedule
	Err      error
}

// String renders the violation with its deterministic reproduction key.
func (v Violation) String() string {
	return fmt.Sprintf("seed=%d sched=%q: %v", v.Seed, v.Schedule, v.Err)
}

// Result summarizes a sweep or a soak.
type Result struct {
	// TotalWrites is W, the write count of the last counted workload.
	TotalWrites int64
	// Runs is the number of crash-and-recover cycles performed.
	Runs int
	// Violations holds every failed run.
	Violations []Violation

	// Degraded-recovery aggregates, summed over every restart of every run.
	UndoneViaReconstruction int
	DeferredParityGroups    int
	// DataLossRuns counts runs whose recovery reported lost pages, LostPages
	// the pages they reported.
	DataLossRuns int
	LostPages    int

	// Integrity-plane aggregates: the engine's corruption counters summed
	// over every run — evidence that planted faults were actually detected
	// and repaired rather than never touched.
	CorruptBlocksDetected   int64
	ReadRepairs             int64
	ScrubRepairs            int64
	ScrubbedGroups          int64
	UnrecoverableCorruption int64
}

// run performs one cycle and folds its outcome into the aggregates.  Under
// mustCut the schedule ends in a sweep's cut, and a run it never stopped —
// one that tested no recovery — is a violation.
func (r *Result) run(opts Options, sched fault.Schedule, mustCut bool) {
	r.Runs++
	rep, s, err := Run(opts, sched)
	if err == nil && mustCut && rep == nil {
		err = fmt.Errorf("cut at write %d never fired", sched[len(sched)-1].After)
	}
	if rep != nil {
		r.UndoneViaReconstruction += rep.UndoneViaReconstruction
		r.DeferredParityGroups += rep.DeferredParityGroups
		if len(rep.LostPages) > 0 {
			r.DataLossRuns++
			r.LostPages += len(rep.LostPages)
		}
	}
	r.CorruptBlocksDetected += s.CorruptBlocksDetected
	r.ReadRepairs += s.ReadRepairs
	r.ScrubRepairs += s.ScrubRepairs
	r.ScrubbedGroups += s.ScrubbedGroups
	r.UnrecoverableCorruption += s.UnrecoverableCorruption
	if err != nil {
		r.Violations = append(r.Violations, Violation{Seed: opts.Seed, Schedule: sched, Err: err})
	}
}

// driver runs the deterministic workload and carries the oracle: the
// page images every committed transaction has durably written.
type driver struct {
	db    *rda.DB
	plane *fault.Plane
	opts  Options
	rng   *rand.Rand

	committed map[rda.PageID][]byte
	pending   map[rda.PageID][]byte // current transaction's writes
	inCommit  bool                  // crash may have interrupted an EOT
	// lost holds pages recovery reported as beyond the surviving
	// redundancy: verify holds them to the explicit-loss contract (zeroed)
	// instead of the committed oracle — never silent corruption.
	lost map[rda.PageID]bool
}

// start opens a fresh database with the schedule's fault plane installed.
func start(opts Options, sched fault.Schedule) (*driver, error) {
	db, err := rda.Open(dbConfig(opts))
	if err != nil {
		return nil, err
	}
	plane := fault.NewPlane(sched)
	plane.SetTransientEvery(opts.TransientEvery)
	db.SetInjector(plane)
	return &driver{
		db:        db,
		plane:     plane,
		opts:      opts,
		rng:       rand.New(rand.NewSource(opts.Seed)),
		committed: make(map[rda.PageID][]byte),
		lost:      make(map[rda.PageID]bool),
	}, nil
}

// pageImage is the deterministic content transaction txn writes to page
// p at operation op.  It depends only on (seed, txn, op, p), never on
// rng state, so the oracle can recompute it.
func (d *driver) pageImage(txn, op int, p rda.PageID) []byte {
	out := make([]byte, d.db.PageSize())
	h := uint64(d.opts.Seed)*0x9E3779B97F4A7C15 ^ uint64(txn)<<40 ^ uint64(op)<<20 ^ uint64(p)
	for i := range out {
		h = h*6364136223846793005 + 1442695040888963407
		out[i] = byte(h >> 56)
	}
	return out
}

// workload executes the seeded workload.  All rng draws happen in a fixed
// order, so every run with the same seed issues the identical I/O sequence
// up to the crash point (a crash rule unwinds it as a panic; see guard).
func (d *driver) workload() error {
	npages := d.db.NumPages()
	for t := 0; t < d.opts.Txns; t++ {
		if err := d.checkpoint(t); err != nil {
			return err
		}
		tx, err := d.db.Begin()
		if err != nil {
			return fmt.Errorf("txn %d begin: %w", t, err)
		}
		d.pending = make(map[rda.PageID][]byte)
		abort := d.rng.Intn(6) == 0
		for op := 0; op < d.opts.OpsPerTx; op++ {
			p := rda.PageID(d.rng.Intn(npages))
			read := d.rng.Intn(4) == 0
			if d.opts.Records {
				if err := d.recordOp(tx, t, op, p, read); err != nil {
					return fmt.Errorf("txn %d page %d: %w", t, p, err)
				}
				continue
			}
			if read {
				got, err := tx.ReadPage(p)
				if err != nil {
					return fmt.Errorf("txn %d read page %d: %w", t, p, err)
				}
				// Per-read oracle: the workload is single-threaded, so
				// every successful read has exactly one legal value — the
				// transaction's own pending write, else the last committed
				// image, else the formatted zero page.  Serving anything
				// else (a stale lost-write ghost, a misdirected payload, a
				// rotted block) is the silent corruption the integrity
				// plane exists to make impossible.
				if !bytes.Equal(got, d.current(p)) {
					return fmt.Errorf("txn %d read of page %d served corrupt data", t, p)
				}
				continue
			}
			img := d.pageImage(t, op, p)
			if err := tx.WritePage(p, img); err != nil {
				return fmt.Errorf("txn %d write page %d: %w", t, p, err)
			}
			d.pending[p] = img
		}
		if abort {
			if err := tx.Abort(); err != nil {
				return fmt.Errorf("txn %d abort: %w", t, err)
			}
			d.pending = nil
			continue
		}
		if err := d.commit(tx); err != nil {
			return fmt.Errorf("txn %d commit: %w", t, err)
		}
		if d.opts.Scrub {
			if _, _, err := d.db.ScrubStep(1); err != nil {
				return fmt.Errorf("scrub step after txn %d: %w", t, err)
			}
		}
	}
	return d.checkpoint(d.opts.Txns)
}

// commit ends tx and keeps the oracle in step: while Commit runs the
// transaction's outcome is ambiguous to a crash (inCommit); once it
// returns, its pending images are the committed ones.
func (d *driver) commit(tx *rda.Tx) error {
	d.inCommit = true
	if err := tx.Commit(); err != nil {
		return err
	}
	d.inCommit = false
	for p, img := range d.pending {
		d.committed[p] = img
	}
	d.pending = nil
	return nil
}

// checkpoint takes the NoForce workload's checkpoint before transaction t:
// every fourth one and the end of the workload.
func (d *driver) checkpoint(t int) error {
	if !d.opts.NoForce || t == 0 || (t%4 != 0 && t != d.opts.Txns) {
		return nil
	}
	if err := d.db.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint before txn %d: %w", t, err)
	}
	return nil
}

// expected returns the oracle image of page p: its last committed write,
// or the formatted page (zero; the empty record layout under Records).
func (d *driver) expected(p rda.PageID) []byte {
	if img, ok := d.committed[p]; ok {
		return img
	}
	blank := make([]byte, d.db.PageSize())
	if d.opts.Records {
		_ = record.Format(blank, recordSize) // fails only on a size dbConfig never sets
	}
	return blank
}

// current returns the image a read of page p by the running transaction
// must see: its own pending write, else the last committed image.
func (d *driver) current(p rda.PageID) []byte {
	if img, ok := d.pending[p]; ok {
		return img
	}
	return d.expected(p)
}

// recordOp is one workload operation on page p under Options.Records: a
// read of one slot checked against the oracle's image of the page, or a
// write of one slot folded into it.  Slot and record depend only on (seed,
// txn, op, p), like pageImage.
func (d *driver) recordOp(tx *rda.Tx, txn, op int, p rda.PageID, read bool) error {
	img := append([]byte(nil), d.current(p)...)
	view, err := record.View(img)
	if err != nil {
		return err
	}
	slot := (txn + op) % view.Slots()
	if read {
		want, werr := view.Read(slot)
		got, err := tx.ReadRecord(p, slot)
		if (err == nil) != (werr == nil) || !bytes.Equal(got, want) {
			return fmt.Errorf("read of slot %d served corrupt data (%v)", slot, err)
		}
		return nil
	}
	rec := d.pageImage(txn, op, p)[:recordSize]
	if err := tx.WriteRecord(p, slot, rec); err != nil {
		return err
	}
	d.pending[p] = img
	return view.Write(slot, rec)
}

// verify compares every on-disk page against the oracle.  If the crash
// unwound out of a Commit, that one transaction's outcome is ambiguous:
// its pages may all show the new images (the EOT record made it to the
// log) or all show the old ones (it did not) — but never a mix.
func (d *driver) verify() error {
	if d.inCommit && len(d.pending) > 0 {
		var newN, oldN int
		for p, img := range d.pending {
			if d.lost[p] {
				continue
			}
			got, err := d.db.PeekPage(p)
			if err != nil {
				return fmt.Errorf("peek page %d: %w", p, err)
			}
			old := d.expected(p)
			switch {
			case bytes.Equal(got, img) && bytes.Equal(got, old):
				// Rewrite of identical content: counts as either outcome.
			case bytes.Equal(got, img):
				newN++
			case bytes.Equal(got, old):
				oldN++
			default:
				return fmt.Errorf("page %d of interrupted commit matches neither old nor new image", p)
			}
		}
		if newN > 0 && oldN > 0 {
			return fmt.Errorf("interrupted commit is not atomic: %d page(s) new, %d page(s) old", newN, oldN)
		}
		if newN > 0 {
			// The EOT record survived: the transaction committed.
			for p, img := range d.pending {
				d.committed[p] = img
			}
		}
	}
	for p := 0; p < d.db.NumPages(); p++ {
		id := rda.PageID(p)
		got, err := d.db.PeekPage(id)
		if err != nil {
			return fmt.Errorf("peek page %d: %w", p, err)
		}
		if d.lost[id] {
			if !bytes.Equal(got, make([]byte, d.db.PageSize())) {
				return fmt.Errorf("lost page %d is not zeroed: explicit loss must never be silent corruption", p)
			}
			continue
		}
		if !bytes.Equal(got, d.expected(id)) {
			return fmt.Errorf("page %d diverges from last committed image", p)
		}
	}
	return nil
}

// probe checks that the recovered database still accepts and persists a
// transaction.  Its commit goes through the same bookkeeping as the
// workload's, so a late crash rule firing in here leaves the oracle an
// ordinary interrupted (or just-committed) transaction to judge.
func (d *driver) probe() error {
	tx, err := d.db.Begin()
	if err != nil {
		return fmt.Errorf("probe begin: %w", err)
	}
	p := rda.PageID(0)
	for d.opts.Records && d.lost[p] {
		p++ // a lost page is zeroed, not formatted: it takes no record
	}
	d.pending = make(map[rda.PageID][]byte)
	if d.opts.Records {
		err = d.recordOp(tx, 1<<20, 0, p, false)
	} else {
		img := d.pageImage(1<<20, 0, p)
		if err = tx.WritePage(p, img); err == nil {
			d.pending[p] = img
		}
	}
	if err != nil {
		return fmt.Errorf("probe write: %w", err)
	}
	img := d.pending[p]
	if err := d.commit(tx); err != nil {
		return fmt.Errorf("probe commit: %w", err)
	}
	// A disk can die during the probe itself (a late FailDisk rule): the
	// commit then lives only in parity, which the raw platter peek below
	// cannot see.  Rebuild first so redundancy-only state is
	// materialized; an instant no-op on a healthy array.
	if err := pump(d.rebuildStep); err != nil {
		return fmt.Errorf("probe rebuild: %w", err)
	}
	if d.opts.NoForce {
		// The commit left the page in the buffer; the platter peek below
		// needs it written back.
		if err := d.db.Checkpoint(); err != nil {
			return fmt.Errorf("probe checkpoint: %w", err)
		}
	}
	got, err := d.db.PeekPage(p)
	if err != nil {
		return fmt.Errorf("probe peek: %w", err)
	}
	if !bytes.Equal(got, img) {
		return fmt.Errorf("probe update not durable")
	}
	return d.db.VerifyParity()
}

// guard runs step, converting a crash-rule panic (a crash point landing on
// one of step's writes) into a returned sentinel so the caller can run
// recovery and resume.  Everything a schedule rule can fire inside — the
// workload, the restart, the pumps, the probe — runs under it: no schedule
// makes Run panic.
func guard(step func() error) (crash *fault.Crash, err error) {
	defer func() {
		if r := recover(); r != nil {
			c, ok := fault.AsCrash(r)
			if !ok {
				panic(r)
			}
			crash = c
		}
	}()
	return nil, step()
}

// pump calls step until it reports done.
func pump(step func() (done bool, err error)) error {
	for {
		done, err := step()
		if done || err != nil {
			return err
		}
	}
}

// rebuildStep is the pump step of the online rebuild: done at once on a
// healthy array.
func (d *driver) rebuildStep() (bool, error) { return d.db.RebuildStep(0) }

// scrubCycle returns the pump step of one full online scrub cycle —
// NumGroups cursor slots, so every group is visited even when the
// workload's interleaved steps left the shared cursor mid-array.
func (d *driver) scrubCycle() func() (bool, error) {
	covered := 0
	return func() (bool, error) {
		rep, _, err := d.db.ScrubStep(0)
		if rep != nil {
			covered += rep.GroupsScanned + rep.GroupsSkipped
		}
		return covered >= d.db.NumGroups(), err
	}
}

// law is what a schedule makes legal for the run under it.
type law struct {
	// degraded: restarts may report reconstruction undos, deferred parity
	// groups or lost pages at all.  Otherwise the degraded recovery
	// machinery must stay completely cold: a non-zero counter means the
	// degraded path leaked into the common case.
	degraded bool
	// loss: a restart may report LostPages, which the oracle then requires
	// zeroed rather than matching their committed images.
	loss bool
	// typed: ErrUnrecoverableCorruption anywhere in the run ends it as a
	// pass — damage beyond the redundancy, surfaced as the typed error and
	// never as garbage bytes.
	typed bool
	// silent: latent damage is planted, so a full scrub cycle follows
	// recovery and the raw platter peeks see only clean blocks.
	silent bool
}

// lawOf reads the law off the schedule.  Each fault is one erasure (a
// misdirected write two: the victim block and the stale target) and a
// group absorbs opts.budget() of them, but the kinds differ in what the
// engine knows:
//
//   - a drive dead from the start (faildisk@w0) was observed long before
//     any crash, so every no-log steal it touched was demoted and logged:
//     nothing may be lost beside it — until one more erasure joins in (a
//     tear, a silent fault) and together they exceed the budget wherever
//     they share a group;
//   - a drive dying mid-run may die at the crash write itself, unobserved:
//     the demotion that would have logged a loser's before-image never ran
//     and recovery discovers the death at restart, so loss is legal;
//   - a silent fault is never observed, so alone it can destroy the only
//     copy of a loser's before-image (the committed twin of a dirty group):
//     loss is legal; the typed error needs the budget exceeded, which on
//     twin parity a misdirected write manages by itself when it lands in
//     its target's own group.
func lawOf(opts Options, sched fault.Schedule) law {
	var dead0, late, extra int
	var l law
	for _, r := range sched {
		switch r.Kind {
		case fault.KindFailDisk:
			if r.After == 0 {
				dead0++
			} else {
				late++
			}
		case fault.KindTorn:
			extra++
		case fault.KindBitFlip, fault.KindLostWrite:
			extra++
			l.silent = true
		case fault.KindMisdirected:
			extra += 2
			l.silent = true
		}
	}
	beyond := extra > 0 && dead0+late+extra > opts.budget()
	l.degraded = dead0+late > 0 || l.silent
	l.loss = late > 0 || beyond || (l.silent && dead0 == 0)
	l.typed = l.silent && beyond
	return l
}

// admits holds one restart's report to the law.
func (l law) admits(rep *rda.RecoveryReport) error {
	if !l.degraded && (rep.UndoneViaReconstruction != 0 || rep.DeferredParityGroups != 0 || len(rep.LostPages) != 0) {
		return fmt.Errorf("healthy restart took the degraded path: reconstruction=%d deferred=%d lost=%v",
			rep.UndoneViaReconstruction, rep.DeferredParityGroups, rep.LostPages)
	}
	if !l.loss && len(rep.LostPages) > 0 {
		return fmt.Errorf("recovery lost pages %v inside the redundancy its schedule leaves", rep.LostPages)
	}
	return nil
}

// accumulate folds one restart's report into the run's: numeric fields
// add, slices append.  By reflection, so a field rda.RecoveryReport gains
// is summed without an edit here (and one of a kind this cannot fold fails
// loudly instead of being dropped).
func accumulate(total, rep *rda.RecoveryReport) *rda.RecoveryReport {
	if total == nil {
		return rep
	}
	t, r := reflect.ValueOf(total).Elem(), reflect.ValueOf(rep).Elem()
	for i := 0; i < t.NumField(); i++ {
		switch f := t.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + r.Field(i).Int())
		case reflect.Slice:
			f.Set(reflect.AppendSlice(f, r.Field(i)))
		default:
			panic(fmt.Sprintf("crashcheck: RecoveryReport.%s is of a kind accumulate does not fold", t.Type().Field(i).Name))
		}
	}
	return total
}

// Run performs one crash-and-recover cycle: the seeded workload under the
// fault schedule, then crash recovery for as long as crash rules keep
// firing, the online rebuild, a scrub cycle, and the oracle and probe
// checks.  A nil error means the run survived.  It returns the recovery
// report — summed over the restarts; nil if no crash rule fired — and the
// engine's final counters.
//
// A schedule may combine any rules.  With a disk death, the workload must
// complete with no surfaced error (degraded serving masks the dead disk,
// the retry layer masks Options.TransientEvery), crash recovery runs
// degraded, and the restarted rebuild restores full redundancy before the
// oracle looks.  With a silent fault, planted damage must be repaired from
// redundancy on first contact — hot-path read, scrub or recovery.
func Run(opts Options, sched fault.Schedule) (*rda.RecoveryReport, rda.Stats, error) {
	opts.fill()
	d, err := start(opts, sched)
	if err != nil {
		return nil, rda.Stats{}, err
	}
	law := lawOf(opts, sched)
	rep, err := d.cycle(sched, law)
	if law.typed && errors.Is(err, rda.ErrUnrecoverableCorruption) {
		err = nil
	}
	return rep, d.db.Stats(), err
}

func (d *driver) cycle(sched fault.Schedule, law law) (total *rda.RecoveryReport, err error) {
	crash, err := guard(d.workload)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	// Convergence: a crash sends the run through CrashHard + Recover; the
	// restart, the pumps and the probe afterwards can themselves hit a late
	// crash rule (a crash mid-restart, mid-rebuild, mid-scrub-repair, or
	// past the end of the workload) and loop back.  Each round consumes at least one of the
	// schedule's one-shot rules, so the loop is bounded.
	for round := 0; ; round++ {
		if crash != nil {
			if round > len(sched)+1 {
				return total, fmt.Errorf("crash recovery did not converge after %d rounds", round)
			}
			d.db.CrashHard()
			var rep *rda.RecoveryReport
			cut, err := guard(func() (err error) {
				rep, err = d.db.Recover()
				return err
			})
			if err != nil {
				return total, fmt.Errorf("recover after %v: %w", crash, err)
			}
			if cut != nil {
				// The restart itself was cut: crash again and restart anew.
				crash = cut
				continue
			}
			total = accumulate(total, rep)
			if err := law.admits(rep); err != nil {
				return total, fmt.Errorf("after %v: %w", crash, err)
			}
			for _, p := range rep.LostPages {
				d.lost[p] = true
			}
			if err := d.db.VerifyRecovered(); err != nil {
				return total, fmt.Errorf("after %v: %w", crash, err)
			}
		}
		// The workload completed or recovery did.  If a disk is (still)
		// down the array serves degraded: rebuild it online.  Then a full
		// scrub cycle repairs whatever latent damage is left on the
		// platter, so the raw-peek verification sees only clean blocks.
		crash, err = guard(func() error {
			if err := pump(d.rebuildStep); err != nil {
				return fmt.Errorf("online rebuild: %w", err)
			}
			if d.opts.Scrub || law.silent {
				if err := pump(d.scrubCycle()); err != nil {
					return fmt.Errorf("online scrub: %w", err)
				}
			}
			return nil
		})
		if err != nil {
			return total, err
		}
		if crash != nil {
			continue
		}
		crash, err = guard(func() error {
			if err := d.verify(); err != nil {
				return err
			}
			return d.probe()
		})
		if err != nil {
			return total, fmt.Errorf("after %v: %w", sched, err)
		}
		if crash == nil {
			break
		}
	}
	if n := d.opts.TransientEvery; n > 0 && d.plane.Reads()+d.plane.Writes() >= n && d.db.Stats().IORetries == 0 {
		return total, fmt.Errorf("transient rate 1/%d injected faults but the retry layer recorded none", n)
	}
	return total, nil
}

// deadPrefix is the schedule of n drives dead from the start.
func deadPrefix(n int) fault.Schedule {
	var s fault.Schedule
	for d := 0; d < n; d++ {
		s = append(s, fault.FailDisk(d, 0))
	}
	return s
}

// count measures the write clock of the workload under a prefix of
// faildisk[d]@w0 rules: the seeded workload on a pure counting plane, then
// the online rebuild pumped to completion.  It returns the write count at
// workload end and at rebuild end (equal when nothing is dead) — crash
// indexes below the first interrupt the workload, indexes between the two
// land inside the restarted rebuild.  The final state is checked against
// the oracle, so a broken workload is caught before any crash is injected.
func count(opts Options, prefix fault.Schedule) (workload, full int64, err error) {
	opts.fill()
	opts.TransientEvery = 0 // the clock is the workload's own: no retried access on it
	d, err := start(opts, prefix)
	if err != nil {
		return 0, 0, err
	}
	if err := d.workload(); err != nil {
		return 0, 0, fmt.Errorf("counting run under %v: %w", prefix, err)
	}
	workload = d.plane.Writes()
	if err := pump(d.rebuildStep); err != nil {
		return 0, 0, fmt.Errorf("counting rebuild under %v: %w", prefix, err)
	}
	if err := d.verify(); err != nil {
		return 0, 0, fmt.Errorf("counting run under %v, final state: %w", prefix, err)
	}
	return workload, d.plane.Writes(), nil
}

// family is one schedule shape of a Sweep: dead drives down from the start,
// one more dying at the cut itself or not, the cut at every k below upTo.
type family struct {
	dead     int
	coincide bool
	upTo     int64
}

// Sweep is the exhaustive enumerator — the machine check that one
// redundancy mechanism funds media AND transaction recovery at once.  With
// n = Options.Dead it runs the cut (Options.cut) at every write index k of
// two schedule families:
//
//	dead long before   faildisk[0..n)@w0 cut@k          k in [0, rebuild end)
//	coinciding (n ≥ 1) faildisk[0..n-1)@w0 faildisk[d]@k cut@k
//	                                          k in [0, end of the (n-1)-dead workload)
//
// The first restarts with n members long dead — n = 0 is the healthy sweep
// — and its indexes past the workload land inside the online rebuild, which
// the restart must redo from scratch.  In the second the n-th death, d
// rotating over the surviving drives, is unobserved before the crash:
// recovery discovers it at restart.  Where each may lose pages is lawOf's
// to say; a failed restart is never legal, and neither is a run the cut
// never stopped.  progress, when non-nil, is
// called after each run.
func Sweep(opts Options, progress func(done, total int64)) (*Result, error) {
	opts.fill()
	n := opts.Dead
	if n < 0 || n > opts.budget() {
		return nil, fmt.Errorf("crashcheck: %d dead drive(s) exceed the array's redundancy (QParity=%v)", n, opts.QParity)
	}
	geo, err := start(opts, nil)
	if err != nil {
		return nil, err
	}
	workload, full, err := count(opts, deadPrefix(n))
	if err != nil {
		return nil, err
	}
	families := []family{{dead: n, upTo: full}}
	if n > 0 {
		below, _, err := count(opts, deadPrefix(n-1))
		if err != nil {
			return nil, err
		}
		families = append(families, family{dead: n - 1, coincide: true, upTo: below})
	}
	res := &Result{TotalWrites: workload}
	var done, total int64
	for _, f := range families {
		total += f.upTo
	}
	for _, f := range families {
		for k := int64(0); k < f.upTo; k++ {
			sched := deadPrefix(f.dead)
			if f.coincide {
				sched = append(sched, fault.FailDisk(f.dead+int(k)%(geo.db.NumDisks()-f.dead), k))
			}
			res.run(opts, append(sched, opts.cut(k)), true)
			done++
			if progress != nil {
				progress(done, total)
			}
		}
	}
	return res, nil
}

// Generator names the schedule a Soak iteration draws.
type Generator string

// The three generators.  Their draw orders are fixed: a soak is
// reproducible from its master seed only while they stay so.
const (
	// Crashes: a clean crash, or one time in three a tear, at a random
	// write index.
	Crashes Generator = "crash"
	// Mix rotates between a mid-run disk death alone (degraded serving and
	// an online rebuild, no crash), a crash or tear alone, and the two in
	// one schedule — degraded crash recovery, half of the time with the
	// death at the crash write itself, where explicit loss is legal.  Meant
	// to run under Options.TransientEvery, which must stay invisible.
	Mix Generator = "mix"
	// Corrupt rotates the planted silent fault among a bit flip, a lost
	// write and a misdirected write at a random write index; half the runs
	// additionally crash at a random later index.  Meant to run with
	// Options.Scrub, so scrub steps interleave with the workload.
	Corrupt Generator = "corrupt"
)

// generators draw one schedule for iteration i of a soak from meta, against
// a workload of total writes on an array of that many disks.
var generators = map[Generator]func(meta *rand.Rand, i int, total int64, disks int) fault.Schedule{
	Crashes: func(meta *rand.Rand, _ int, total int64, _ int) fault.Schedule {
		k := meta.Int63n(total)
		if meta.Intn(3) == 0 {
			return fault.Schedule{fault.TornWrite(k, meta.Intn(2) == 0)}
		}
		return fault.Schedule{fault.CrashAfterNWrites(k)}
	},
	Mix: func(meta *rand.Rand, i int, total int64, disks int) fault.Schedule {
		k := meta.Int63n(total)
		disk := meta.Intn(disks)
		tornHead := meta.Intn(2) == 0
		wantTorn := meta.Intn(3) == 0
		coincide := meta.Intn(2) == 0
		k2 := meta.Int63n(total)
		switch i % 3 {
		case 0:
			return fault.Schedule{fault.FailDisk(disk, k)}
		case 1:
			if wantTorn {
				return fault.Schedule{fault.TornWrite(k, tornHead)}
			}
			return fault.Schedule{fault.CrashAfterNWrites(k)}
		}
		if coincide {
			k2 = k
		}
		return fault.Schedule{fault.FailDisk(disk, k), fault.CrashAfterNWrites(k2)}
	},
	Corrupt: func(meta *rand.Rand, i int, total int64, _ int) fault.Schedule {
		k := meta.Int63n(total)
		var rule fault.Rule
		switch i % 3 {
		case 0:
			rule = fault.BitFlip(k, meta.Intn(pageSize*8))
		case 1:
			rule = fault.LostWrite(k)
		default:
			rule = fault.Misdirected(k, meta.Intn(numPages))
		}
		sched := fault.Schedule{rule}
		if meta.Intn(2) == 0 && total > k+1 {
			// Crash strictly after the silent fault, so the damage is on
			// the platter when recovery runs.  Strictly: the crash rule
			// fires on any write-class op while the silent rules wait for
			// a payload write at their exact clock, so a crash at the same
			// index can consume the clock on a header write and leave the
			// silent rule armed — it would then fire on recovery's own
			// repair I/O instead of the workload's.
			sched = append(sched, fault.CrashAfterNWrites(k+1+meta.Int63n(total-k-1)))
		}
		return sched
	},
}

// Soak performs iters randomized cycles.  Each iteration derives a fresh
// workload seed from opts.Seed, counts that workload's writes under
// Options.Dead drives dead from the start, and has gen draw a schedule
// against that clock (prefixed with the deaths) — so a whole soak is
// reproducible from one number and any single failure from its printed
// seed and schedule.  Every run is held to Run's contract.
func Soak(opts Options, iters int, gen Generator) (*Result, error) {
	opts.fill()
	draw, ok := generators[gen]
	if !ok {
		return nil, fmt.Errorf("crashcheck: unknown schedule generator %q", gen)
	}
	geo, err := start(opts, nil)
	if err != nil {
		return nil, err
	}
	prefix := deadPrefix(opts.Dead)
	meta := rand.New(rand.NewSource(opts.Seed))
	res := &Result{}
	for i := 0; i < iters; i++ {
		o := opts
		o.Seed = int64(meta.Uint64() >> 1)
		total, _, err := count(o, prefix)
		if err != nil {
			if len(prefix) == 0 {
				return nil, err
			}
			// Degraded serving failed with nothing injected but the deaths:
			// a finding, recorded as the run under the prefix alone.
			res.run(o, prefix, false)
			continue
		}
		if total == 0 {
			continue
		}
		res.TotalWrites = total
		res.run(o, append(deadPrefix(opts.Dead), draw(meta, i, total, geo.db.NumDisks())...), false)
	}
	return res, nil
}
