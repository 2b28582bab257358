// Package crashcheck is the crash-point explorer for the RDA engine.
//
// The paper's central claim (Section 4) is that twin-parity undo makes
// the database recoverable from a crash at *any* instant, without UNDO
// log writes for stolen pages.  This package turns that claim into a
// machine-checked property:
//
//  1. run a deterministic seeded workload once under a counting fault
//     plane and record W, the total number of block writes it issues;
//  2. for every write index k in [0, W), re-run the identical workload,
//     crash it at write k (cleanly, or tearing write k itself in torn
//     mode), run crash recovery, and verify the recovered state.
//
// The verified invariants after each crash:
//
//   - every page a committed transaction wrote holds its last committed
//     image (durability);
//   - no page shows data from an uncommitted transaction (no-UNDO steal
//     really undone);
//   - the single transaction whose Commit the crash may have interrupted
//     is atomic — all of its pages are new or all are old;
//   - each group's current parity twin equals the XOR of its data pages,
//     no working-state twin survives, the twin-state pair is one a legal
//     Figure 8 history can produce, the Current_Parity bitmap matches a
//     Figure 7 recomputation, and the Dirty_Set is empty
//     (DB.VerifyRecovered);
//   - the database still works: a probe transaction commits and its
//     update is durable and parity-consistent.
//
// The same property holds degraded: ExploreDegraded repeats the sweep
// with one disk already down, with the disk death coinciding with the
// crash, and with the crash landing inside the online rebuild — degraded
// crash recovery must preserve every invariant above on the surviving
// members, with explicit (zeroed, reported) data loss tolerated only
// when the death and the crash coincide.
//
// Every sweep also runs ¬FORCE (Options.NoForce), the only discipline under
// which a restart has winners to REDO: commits leave their pages in the
// buffer, the workload takes checkpoints of its own, and the crash points
// land between a commit and the write-back of its pages, and inside the
// checkpoints.  Options.Records makes each write one record slot, so REDO
// replays several images per page.
//
// Because the workload, the buffer manager, and the fault plane are all
// deterministic, a failing run is identified completely by its seed and
// schedule, both of which print in a replayable syntax.
package crashcheck

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/record"
	"repro/rda"
)

// Options configures an exploration.
type Options struct {
	// Layout selects the array organization (the explorer is run once
	// per layout: DataStriping exercises RAID5Twin, ParityStriping
	// exercises ParityStripeTwin).
	Layout rda.Layout
	// Seed drives the workload generator.
	Seed int64
	// Txns is the number of transactions in the workload (default 8).
	Txns int
	// OpsPerTx is the number of page operations per transaction.  The
	// default of 10 exceeds the buffer pool's 6 frames so transactions
	// dirty more pages than fit, forcing mid-transaction eviction steals
	// through the paper's no-UNDO-logging path — the state the crash
	// sweep most needs to interrupt.
	OpsPerTx int
	// Torn makes the exhaustive sweeps (Explore, ExploreDegraded,
	// ExploreDouble) tear write k itself (half the payload and the full
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
	// rules can land inside scrub I/O.  Used by the corruption soak.
	Scrub bool
	// QParity runs the sweep on a P+Q (RAID-6 style) array: two
	// redundancy equations per group, so two overlapping disk deaths
	// stay within budget.  ExploreDouble forces it on; the other modes
	// accept it to re-run their single-fault sweeps over the richer
	// geometry.
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

func (o *Options) fill() {
	if o.Txns <= 0 {
		o.Txns = 8
	}
	if o.OpsPerTx <= 0 {
		o.OpsPerTx = 10
	}
}

// dbConfig is the explorer's geometry: small enough that an exhaustive
// sweep stays cheap, with fewer buffer frames than the working set so
// eviction steals (the paper's no-UNDO-logging path) actually happen.
func dbConfig(opts Options) rda.Config {
	cfg := rda.Config{
		DataDisks:    4,
		NumPages:     48,
		PageSize:     64,
		BufferFrames: 6,
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

// recordSize is the Records workload's record length: seven slots on the
// explorer's 64-byte pages.
const recordSize = 8

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

// Result summarizes an exploration.
type Result struct {
	// TotalWrites is W for the last counted workload (0 for Replay).
	TotalWrites int64
	// Runs is the number of crash-and-recover cycles performed.
	Runs int
	// Violations holds every failed run.
	Violations []Violation

	// Degraded-sweep aggregates (RunDegradedSchedule-based modes only),
	// summed over every recovery the sweep performed.
	UndoneViaReconstruction int
	DeferredParityGroups    int
	// DataLossRuns counts runs whose recovery reported lost pages — legal
	// only for schedules where the disk death coincides with the crash.
	DataLossRuns int
	// LostPages is the total number of pages those runs reported lost.
	LostPages int

	// Integrity-plane aggregates (CorruptSoak only): the engine's
	// corruption counters summed over every run, evidence that the soak's
	// planted faults were actually detected and repaired rather than
	// never touched.
	CorruptBlocksDetected   int64
	ReadRepairs             int64
	ScrubRepairs            int64
	ScrubbedGroups          int64
	UnrecoverableCorruption int64
}

// absorbStats folds one run's integrity counters into the aggregates.
func (r *Result) absorbStats(s rda.Stats) {
	r.CorruptBlocksDetected += s.CorruptBlocksDetected
	r.ReadRepairs += s.ReadRepairs
	r.ScrubRepairs += s.ScrubRepairs
	r.ScrubbedGroups += s.ScrubbedGroups
	r.UnrecoverableCorruption += s.UnrecoverableCorruption
}

// absorb folds one run's recovery report into the sweep aggregates.
func (r *Result) absorb(rep *rda.RecoveryReport) {
	if rep == nil {
		return
	}
	r.UndoneViaReconstruction += rep.UndoneViaReconstruction
	r.DeferredParityGroups += rep.DeferredParityGroups
	if len(rep.LostPages) > 0 {
		r.DataLossRuns++
		r.LostPages += len(rep.LostPages)
	}
}

// driver runs the deterministic workload and carries the oracle: the
// page images every committed transaction has durably written.
type driver struct {
	db   *rda.DB
	opts Options
	rng  *rand.Rand

	committed map[rda.PageID][]byte
	pending   map[rda.PageID][]byte // current transaction's writes
	inCommit  bool                  // crash may have interrupted an EOT
	// lost holds pages recovery reported as beyond the surviving
	// redundancy (coinciding crash + disk death only): the oracle expects
	// them zeroed — explicit loss, never silent corruption.
	lost map[rda.PageID]bool
}

func newDriver(db *rda.DB, opts Options) *driver {
	return &driver{
		db:        db,
		opts:      opts,
		rng:       rand.New(rand.NewSource(opts.Seed)),
		committed: make(map[rda.PageID][]byte),
	}
}

// noteLost records pages recovery declared lost; verify holds them to
// the explicit-loss contract (zeroed) instead of the committed oracle.
func (d *driver) noteLost(pages []rda.PageID) {
	if d.lost == nil {
		d.lost = make(map[rda.PageID]bool)
	}
	for _, p := range pages {
		d.lost[p] = true
	}
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

// run executes the seeded workload.  It returns the crash sentinel if a
// schedule rule fired mid-run, nil if the workload completed.  All rng
// draws happen in a fixed order, so every run with the same seed issues
// the identical I/O sequence up to the crash point.
func (d *driver) run() (crash *fault.Crash, err error) {
	defer func() {
		if r := recover(); r != nil {
			c, ok := fault.AsCrash(r)
			if !ok {
				panic(r)
			}
			crash = c
		}
	}()
	npages := d.db.NumPages()
	for t := 0; t < d.opts.Txns; t++ {
		if err := d.checkpoint(t); err != nil {
			return nil, err
		}
		tx, err := d.db.Begin()
		if err != nil {
			return nil, fmt.Errorf("txn %d begin: %w", t, err)
		}
		d.pending = make(map[rda.PageID][]byte)
		abort := d.rng.Intn(6) == 0
		for op := 0; op < d.opts.OpsPerTx; op++ {
			p := rda.PageID(d.rng.Intn(npages))
			read := d.rng.Intn(4) == 0
			if d.opts.Records {
				if err := d.recordOp(tx, t, op, p, read); err != nil {
					return nil, fmt.Errorf("txn %d page %d: %w", t, p, err)
				}
				continue
			}
			if read {
				got, err := tx.ReadPage(p)
				if err != nil {
					return nil, fmt.Errorf("txn %d read page %d: %w", t, p, err)
				}
				// Per-read oracle: the workload is single-threaded, so
				// every successful read has exactly one legal value — the
				// transaction's own pending write, else the last committed
				// image, else the formatted zero page.  Serving anything
				// else (a stale lost-write ghost, a misdirected payload, a
				// rotted block) is the silent corruption the integrity
				// plane exists to make impossible.
				if !bytes.Equal(got, d.current(p)) {
					return nil, fmt.Errorf("txn %d read of page %d served corrupt data", t, p)
				}
				continue
			}
			img := d.pageImage(t, op, p)
			if err := tx.WritePage(p, img); err != nil {
				return nil, fmt.Errorf("txn %d write page %d: %w", t, p, err)
			}
			d.pending[p] = img
		}
		if abort {
			if err := tx.Abort(); err != nil {
				return nil, fmt.Errorf("txn %d abort: %w", t, err)
			}
			d.pending = nil
			continue
		}
		d.inCommit = true
		if err := tx.Commit(); err != nil {
			return nil, fmt.Errorf("txn %d commit: %w", t, err)
		}
		d.inCommit = false
		for p, img := range d.pending {
			d.committed[p] = img
		}
		d.pending = nil
		if d.opts.Scrub {
			if _, _, err := d.db.ScrubStep(1); err != nil {
				return nil, fmt.Errorf("scrub step after txn %d: %w", t, err)
			}
		}
	}
	return nil, d.checkpoint(d.opts.Txns)
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
// transaction.
func (d *driver) probe() error {
	tx, err := d.db.Begin()
	if err != nil {
		return fmt.Errorf("probe begin: %w", err)
	}
	p := rda.PageID(0)
	for d.opts.Records && d.lost[p] {
		p++ // a lost page is zeroed, not formatted: it takes no record
	}
	img := d.pageImage(1<<20, 0, p)
	if d.opts.Records {
		d.pending = make(map[rda.PageID][]byte)
		err = d.recordOp(tx, 1<<20, 0, p, false)
		img = d.pending[p]
	} else {
		err = tx.WritePage(p, img)
	}
	if err != nil {
		return fmt.Errorf("probe write: %w", err)
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("probe commit: %w", err)
	}
	// A disk can die during the probe itself (a late FailDisk rule): the
	// commit then lives only in parity, which the raw platter peek below
	// cannot see.  Rebuild first so redundancy-only state is
	// materialized; an instant no-op on a healthy array.
	for {
		done, err := d.db.RebuildStep(0)
		if err != nil {
			return fmt.Errorf("probe rebuild: %w", err)
		}
		if done {
			break
		}
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

// CountWrites runs the workload once under a pure counting plane and
// returns W, the number of block writes it issues.  It also sanity-checks
// the final state against the oracle, so a broken workload is caught
// before any crash is injected.
func CountWrites(opts Options) (int64, error) {
	opts.fill()
	db, err := rda.Open(dbConfig(opts))
	if err != nil {
		return 0, err
	}
	plane := fault.NewPlane(nil)
	db.SetInjector(plane)
	d := newDriver(db, opts)
	crash, err := d.run()
	if err != nil {
		return 0, fmt.Errorf("counting run: %w", err)
	}
	if crash != nil {
		return 0, fmt.Errorf("counting run crashed: %v", crash)
	}
	if err := d.verify(); err != nil {
		return 0, fmt.Errorf("counting run final state: %w", err)
	}
	return plane.Writes(), nil
}

// RunSchedule performs one crash-and-recover cycle: the seeded workload
// under the given fault schedule, then CrashHard + Recover + every
// invariant check.  A nil error means the run survived.  If no schedule
// rule fires the workload completes and only the final state is checked.
func RunSchedule(opts Options, sched fault.Schedule) error {
	opts.fill()
	db, err := rda.Open(dbConfig(opts))
	if err != nil {
		return err
	}
	plane := fault.NewPlane(sched)
	db.SetInjector(plane)
	d := newDriver(db, opts)
	crash, err := d.run()
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if crash == nil {
		// Schedule never fired (e.g. a torn rule landed on a header-only
		// write, which cannot tear).  Vacuous crash, real final check.
		if err := d.verify(); err != nil {
			return fmt.Errorf("uncrashed final state: %w", err)
		}
		return nil
	}
	db.CrashHard()
	rep, err := db.Recover()
	if err != nil {
		return fmt.Errorf("recover after %v: %w", crash, err)
	}
	// Healthy-array regression guard: RunSchedule's schedules never kill
	// a disk, so the degraded recovery machinery must stay completely
	// cold — any non-zero counter means the degraded path leaked into
	// the common case.
	if rep.UndoneViaReconstruction != 0 || rep.DeferredParityGroups != 0 || len(rep.LostPages) != 0 {
		return fmt.Errorf("healthy restart took the degraded path after %v: reconstruction=%d deferred=%d lost=%v",
			crash, rep.UndoneViaReconstruction, rep.DeferredParityGroups, rep.LostPages)
	}
	if err := db.VerifyRecovered(); err != nil {
		return fmt.Errorf("after %v: %w", crash, err)
	}
	if err := d.verify(); err != nil {
		return fmt.Errorf("after %v: %w", crash, err)
	}
	if err := d.probe(); err != nil {
		return fmt.Errorf("after %v: %w", crash, err)
	}
	return nil
}

// Explore is the exhaustive sweep: count W, then crash at every write
// index in [0, W).  progress, when non-nil, is called after each run.
func Explore(opts Options, progress func(done, total int64)) (*Result, error) {
	opts.fill()
	total, err := CountWrites(opts)
	if err != nil {
		return nil, err
	}
	res := &Result{TotalWrites: total}
	for k := int64(0); k < total; k++ {
		sched := fault.Schedule{opts.cut(k)}
		res.Runs++
		if err := RunSchedule(opts, sched); err != nil {
			res.Violations = append(res.Violations, Violation{Seed: opts.Seed, Schedule: sched, Err: err})
		}
		if progress != nil {
			progress(k+1, total)
		}
	}
	return res, nil
}

// countDegraded measures the write clock of a degraded run: the seeded
// workload under a FailDisk(d, 0) schedule, then the online rebuild
// pumped to completion.  It returns the write count at workload end and
// at rebuild end — the two bounds the degraded sweep needs (crash
// indexes below the first interrupt the degraded workload; indexes
// between the two land inside the restarted rebuild).  The final state
// is sanity-checked against the oracle.
func countDegraded(opts Options, d int) (workload, full int64, err error) {
	opts.fill()
	db, err := rda.Open(dbConfig(opts))
	if err != nil {
		return 0, 0, err
	}
	plane := fault.NewPlane(fault.Schedule{fault.FailDisk(d, 0)})
	db.SetInjector(plane)
	drv := newDriver(db, opts)
	crash, err := drv.run()
	if err != nil {
		return 0, 0, fmt.Errorf("degraded counting run: %w", err)
	}
	if crash != nil {
		return 0, 0, fmt.Errorf("degraded counting run crashed: %v", crash)
	}
	workload = plane.Writes()
	crash, err = pumpRebuild(db)
	if err != nil {
		return 0, 0, fmt.Errorf("degraded counting rebuild: %w", err)
	}
	if crash != nil {
		return 0, 0, fmt.Errorf("degraded counting rebuild crashed: %v", crash)
	}
	full = plane.Writes()
	if err := drv.verify(); err != nil {
		return 0, 0, fmt.Errorf("degraded counting final state: %w", err)
	}
	return workload, full, nil
}

// ExploreDegraded is the degraded-restart sweep — the machine check that
// one redundancy mechanism really funds media AND transaction recovery
// at once.  Three schedule families, every run a RunDegradedSchedule
// cycle (degraded crash recovery, restarted rebuild, oracle + probe):
//
//   - disk already down: FailDisk(0, 0) plus a crash at every write
//     index of the degraded workload — restart with a member long dead;
//   - coinciding: FailDisk(k%D, k) plus a crash at write k, for every k
//     of the healthy workload — the death is unobserved before the
//     crash, recovery discovers it at restart (the only family where
//     explicit data loss is legal);
//   - crash mid-rebuild: FailDisk(0, 0) plus a crash at every write
//     index inside the online rebuild that follows the workload — the
//     restarted rebuild must reconstruct every group from scratch.
//
// With Options.Torn every family tears write k instead of dropping it: the
// torn block is one more erasure beside the dead disk.  On single twin
// parity that pair can exceed a group's one surviving equation, so loss is
// legal wherever the two share a group; with Options.QParity it stays
// inside the two-erasure budget and is legal only when coinciding.
func ExploreDegraded(opts Options, progress func(done, total int64)) (*Result, error) {
	opts.fill()
	wDeg, wFull, err := countDegraded(opts, 0)
	if err != nil {
		return nil, err
	}
	wHealthy, err := CountWrites(opts)
	if err != nil {
		return nil, err
	}
	geom, err := rda.Open(dbConfig(opts))
	if err != nil {
		return nil, err
	}
	numDisks := geom.NumDisks()
	res := &Result{TotalWrites: wDeg}
	total := wFull + wHealthy
	var done int64
	run := func(sched fault.Schedule, lossLegal bool) {
		res.Runs++
		rep, err := RunDegradedSchedule(opts, sched)
		res.absorb(rep)
		if err == nil && !lossLegal && rep != nil && len(rep.LostPages) > 0 {
			err = fmt.Errorf("recovery lost pages %v with the disk's death observed long before the crash", rep.LostPages)
		}
		if err != nil {
			res.Violations = append(res.Violations, Violation{Seed: opts.Seed, Schedule: sched, Err: err})
		}
		done++
		if progress != nil {
			progress(done, total)
		}
	}
	// Disk-down and crash-mid-rebuild families share one schedule shape;
	// the crash index decides which regime it lands in.  The death was
	// observed, so every no-log steal it touched was demoted and logged:
	// nothing may be lost — except to a tear on single twin parity, where
	// the torn block and the dead one can be two unknowns of a group's one
	// surviving equation.  P+Q has an equation for each.
	for k := int64(0); k < wFull; k++ {
		run(fault.Schedule{fault.FailDisk(0, 0), opts.cut(k)}, opts.Torn && !opts.QParity)
	}
	for k := int64(0); k < wHealthy; k++ {
		run(fault.Schedule{fault.FailDisk(int(k)%numDisks, k), opts.cut(k)}, true)
	}
	return res, nil
}

// countDouble measures the write clock of a double-degraded run: the
// seeded workload with two disks dead from the start (QParity budget),
// then the two-drive online rebuild pumped to completion.  It returns
// the write count at workload end and at rebuild end, the bounds the
// double-fault sweep needs.
func countDouble(opts Options, dA, dB int) (workload, full int64, err error) {
	opts.fill()
	db, err := rda.Open(dbConfig(opts))
	if err != nil {
		return 0, 0, err
	}
	plane := fault.NewPlane(fault.Schedule{fault.FailDisk(dA, 0), fault.FailDisk(dB, 0)})
	db.SetInjector(plane)
	drv := newDriver(db, opts)
	crash, err := drv.run()
	if err != nil {
		return 0, 0, fmt.Errorf("double-degraded counting run: %w", err)
	}
	if crash != nil {
		return 0, 0, fmt.Errorf("double-degraded counting run crashed: %v", crash)
	}
	workload = plane.Writes()
	crash, err = pumpRebuild(db)
	if err != nil {
		return 0, 0, fmt.Errorf("double-degraded counting rebuild: %w", err)
	}
	if crash != nil {
		return 0, 0, fmt.Errorf("double-degraded counting rebuild crashed: %v", crash)
	}
	full = plane.Writes()
	if err := drv.verify(); err != nil {
		return 0, 0, fmt.Errorf("double-degraded counting final state: %w", err)
	}
	return workload, full, nil
}

// ExploreDouble is the double-fault sweep — the machine check that the
// P+Q array's two redundancy equations really fund transaction recovery
// with TWO members gone.  It forces QParity on and runs two schedule
// families, every run a RunDegradedSchedule cycle (double-degraded
// crash recovery, restarted two-drive rebuild, oracle + probe):
//
//   - both disks down from the start: FailDisk(0,0) + FailDisk(1,0)
//     plus a crash at every write index of the double-degraded workload
//     AND of the two-drive rebuild that follows it — restart with two
//     members long dead, and crashes landing inside the rebuild;
//   - second death coinciding with the crash: FailDisk(0,0) plus a
//     second death at write k on a rotating other disk, plus a crash at
//     the same k, for every k of the single-degraded workload — the
//     second loss is unobserved before the crash, so recovery discovers
//     the double-degraded array at restart (the only family where
//     explicit data loss is legal).
//
// With Options.Torn every family tears write k instead of dropping it.  A
// tear on top of two dead drives exceeds P+Q exactly when all three faults
// share a group, so explicit loss is then legal in both families — a
// failed restart never is.
func ExploreDouble(opts Options, progress func(done, total int64)) (*Result, error) {
	opts.fill()
	opts.QParity = true
	wDouble, wFull, err := countDouble(opts, 0, 1)
	if err != nil {
		return nil, err
	}
	wDeg, _, err := countDegraded(opts, 0)
	if err != nil {
		return nil, err
	}
	geom, err := rda.Open(dbConfig(opts))
	if err != nil {
		return nil, err
	}
	numDisks := geom.NumDisks()
	res := &Result{TotalWrites: wDouble}
	total := wFull + wDeg
	var done int64
	run := func(sched fault.Schedule) {
		res.Runs++
		rep, err := RunDegradedSchedule(opts, sched)
		res.absorb(rep)
		if err != nil {
			res.Violations = append(res.Violations, Violation{Seed: opts.Seed, Schedule: sched, Err: err})
		}
		done++
		if progress != nil {
			progress(done, total)
		}
	}
	// Both-down and crash-mid-two-drive-rebuild share one schedule shape;
	// the crash index decides which regime it lands in.
	for k := int64(0); k < wFull; k++ {
		run(fault.Schedule{fault.FailDisk(0, 0), fault.FailDisk(1, 0), opts.cut(k)})
	}
	// Second death coinciding with the crash, rotating over every disk
	// other than the one already down.
	for k := int64(0); k < wDeg; k++ {
		d2 := 1 + int(k)%(numDisks-1)
		run(fault.Schedule{fault.FailDisk(0, 0), fault.FailDisk(d2, k), opts.cut(k)})
	}
	return res, nil
}

// RunMixSchedule is RunSchedule with a background transient-error rate
// (every transientEvery-th access fails once; 0 disables) and support for
// mid-run disk deaths.  A FailDisk rule must complete the workload with
// no surfaced error — the retry layer masks the transients and degraded
// serving masks the dead disk — after which the online rebuild is pumped
// to completion and the oracle, parity invariant and probe checks run
// against the restored array.  Crash rules behave as in RunSchedule
// (recovery runs under the same transient rate).
//
// A schedule MAY combine a crash and a disk death: crash recovery runs
// degraded (rda.Recover with one member down), the restarted rebuild is
// pumped to completion — re-entering recovery if a crash rule fires
// mid-rebuild — and the same oracle applies.  A loser undo whose needed
// committed twin died with the disk falls back to the before-image the
// eager demotion logged; only when the death was never observed before
// the crash (the two coincide) can that image be missing, and recovery
// then reports the affected pages in RecoveryReport.LostPages — the one
// case the oracle excuses, requiring the pages zeroed rather than
// matching their committed images.  Loss under any schedule where the
// death does not coincide with the crash is a violation.
func RunMixSchedule(opts Options, sched fault.Schedule, transientEvery int64) error {
	_, err := runCombined(opts, sched, transientEvery)
	return err
}

// RunDegradedSchedule performs one combined-fault crash-and-recover
// cycle (see RunMixSchedule for the contract) and returns the recovery
// report — counters summed if a crash mid-rebuild forced a second
// restart; nil if no crash rule fired.  It is the single-run unit of
// ExploreDegraded and of the rdacrash -degraded -sched replay.
func RunDegradedSchedule(opts Options, sched fault.Schedule) (*rda.RecoveryReport, error) {
	return runCombined(opts, sched, 0)
}

// schedKillsDisk reports whether the schedule contains a FailDisk rule.
func schedKillsDisk(sched fault.Schedule) bool {
	for _, r := range sched {
		if r.Kind == fault.KindFailDisk {
			return true
		}
	}
	return false
}

// runCombined is the shared engine behind RunMixSchedule and
// RunDegradedSchedule: workload, crash recovery (possibly degraded),
// rebuild convergence, and the oracle/probe/transient checks.
func runCombined(opts Options, sched fault.Schedule, transientEvery int64) (*rda.RecoveryReport, error) {
	opts.fill()
	db, err := rda.Open(dbConfig(opts))
	if err != nil {
		return nil, err
	}
	plane := fault.NewPlane(sched)
	plane.SetTransientEvery(transientEvery)
	db.SetInjector(plane)
	d := newDriver(db, opts)
	killsDisk := schedKillsDisk(sched)
	crash, err := d.run()
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	// Recover-and-rebuild convergence: a crash sends the run through
	// CrashHard + Recover; the rebuild pump afterwards can itself hit a
	// late crash rule (crash-mid-rebuild schedules) and loop back.  Each
	// round consumes at least one of the schedule's one-shot rules, so
	// the loop is bounded.
	var total *rda.RecoveryReport
	for round := 0; ; round++ {
		if crash != nil {
			if round > len(sched)+1 {
				return total, fmt.Errorf("crash recovery did not converge after %d rounds", round)
			}
			db.CrashHard()
			rep, err := db.Recover()
			if err != nil {
				return total, fmt.Errorf("recover after %v: %w", crash, err)
			}
			if total == nil {
				total = rep
			} else {
				total.Losers += rep.Losers
				total.UndoneViaParity += rep.UndoneViaParity
				total.UndoneViaLog += rep.UndoneViaLog
				total.Redone += rep.Redone
				total.RedonePages += rep.RedonePages
				total.RedoneWrites += rep.RedoneWrites
				total.RepairedTorn += rep.RepairedTorn
				total.ResyncedGroups += rep.ResyncedGroups
				total.UndoneViaReconstruction += rep.UndoneViaReconstruction
				total.DeferredParityGroups += rep.DeferredParityGroups
				total.LostPages = append(total.LostPages, rep.LostPages...)
			}
			if !killsDisk && (rep.UndoneViaReconstruction != 0 || rep.DeferredParityGroups != 0 || len(rep.LostPages) != 0) {
				return total, fmt.Errorf("healthy restart took the degraded path after %v: reconstruction=%d deferred=%d lost=%v",
					crash, rep.UndoneViaReconstruction, rep.DeferredParityGroups, rep.LostPages)
			}
			if len(rep.LostPages) > 0 {
				if !killsDisk {
					return total, fmt.Errorf("recovery after %v lost pages %v with no disk death in the schedule", crash, rep.LostPages)
				}
				d.noteLost(rep.LostPages)
			}
			if err := db.VerifyRecovered(); err != nil {
				return total, fmt.Errorf("after %v: %w", crash, err)
			}
		}
		// The workload completed or recovery did; if a disk is (still)
		// down the array serves degraded.  Rebuild it online — a no-op
		// when healthy — re-entering recovery if the pump crashes.
		crash, err = pumpRebuild(db)
		if err != nil {
			return total, fmt.Errorf("online rebuild: %w", err)
		}
		if crash == nil {
			break
		}
	}
	if err := d.verify(); err != nil {
		return total, fmt.Errorf("after %v: %w", sched, err)
	}
	if err := d.probe(); err != nil {
		return total, fmt.Errorf("after %v: %w", sched, err)
	}
	if transientEvery > 0 && plane.Reads()+plane.Writes() >= transientEvery && db.Stats().IORetries == 0 {
		return total, fmt.Errorf("transient rate 1/%d injected faults but the retry layer recorded none", transientEvery)
	}
	return total, nil
}

// pumpRebuild drives the online rebuild to completion, converting a
// crash-rule panic (a crash point landing inside a rebuild write) into a
// returned sentinel so the caller can run recovery and resume.
func pumpRebuild(db *rda.DB) (crash *fault.Crash, err error) {
	defer func() {
		if r := recover(); r != nil {
			c, ok := fault.AsCrash(r)
			if !ok {
				panic(r)
			}
			crash = c
		}
	}()
	for {
		done, err := db.RebuildStep(0)
		if err != nil {
			return nil, err
		}
		if done {
			return nil, nil
		}
	}
}

// MixSoak performs iters randomized self-healing cycles under a constant
// background transient-error rate.  Iterations rotate between the crash
// discipline of Soak (crash or torn write at a random index, then
// recovery), a mid-run disk death (FailDisk at a random write index,
// then degraded serving and an online rebuild), and the combined case —
// a disk death AND a crash in one schedule, exercising degraded crash
// recovery, including coinciding death-and-crash indexes where explicit
// data loss is the legal outcome.  Every run must preserve the
// committed-state oracle; the transient faults must be invisible
// throughout.
func MixSoak(opts Options, iters int, transientEvery int64) (*Result, error) {
	opts.fill()
	probe, err := rda.Open(dbConfig(opts))
	if err != nil {
		return nil, err
	}
	numDisks := probe.NumDisks()
	meta := rand.New(rand.NewSource(opts.Seed))
	res := &Result{}
	for i := 0; i < iters; i++ {
		o := opts
		o.Seed = int64(meta.Uint64() >> 1)
		total, err := CountWrites(o)
		if err != nil {
			return nil, err
		}
		if total == 0 {
			continue
		}
		res.TotalWrites = total
		k := meta.Int63n(total)
		disk := meta.Intn(numDisks)
		tornHead := meta.Intn(2) == 0
		wantTorn := meta.Intn(3) == 0
		coincide := meta.Intn(2) == 0
		k2 := meta.Int63n(total)
		var sched fault.Schedule
		switch i % 3 {
		case 0:
			sched = fault.Schedule{fault.FailDisk(disk, k)}
		case 1:
			if wantTorn {
				sched = fault.Schedule{fault.TornWrite(k, tornHead)}
			} else {
				sched = fault.Schedule{fault.CrashAfterNWrites(k)}
			}
		default:
			if coincide {
				k2 = k
			}
			sched = fault.Schedule{fault.FailDisk(disk, k), fault.CrashAfterNWrites(k2)}
		}
		res.Runs++
		if err := RunMixSchedule(o, sched, transientEvery); err != nil {
			res.Violations = append(res.Violations, Violation{Seed: o.Seed, Schedule: sched, Err: err})
		}
	}
	return res, nil
}

// schedSilentFault reports whether the schedule plants silent corruption
// (a bitflip, lost write or misdirected write).
func schedSilentFault(sched fault.Schedule) bool {
	for _, r := range sched {
		switch r.Kind {
		case fault.KindBitFlip, fault.KindLostWrite, fault.KindMisdirected:
			return true
		}
	}
	return false
}

// schedHasMisdirected reports whether the schedule misdirects a write.
func schedHasMisdirected(sched fault.Schedule) bool {
	for _, r := range sched {
		if r.Kind == fault.KindMisdirected {
			return true
		}
	}
	return false
}

// pumpScrub drives one full online scrub cycle — NumGroups cursor
// slots, so every group is visited even when the workload's interleaved
// steps left the shared cursor mid-array — converting a crash-rule
// panic (a crash point landing inside a scrub repair write) into a
// returned sentinel, like pumpRebuild.
func pumpScrub(db *rda.DB) (crash *fault.Crash, err error) {
	defer func() {
		if r := recover(); r != nil {
			c, ok := fault.AsCrash(r)
			if !ok {
				panic(r)
			}
			crash = c
		}
	}()
	for covered := 0; covered < db.NumGroups(); {
		rep, _, err := db.ScrubStep(0)
		if rep != nil {
			covered += rep.GroupsScanned + rep.GroupsSkipped
		}
		if err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// RunCorruptSchedule performs one silent-corruption crash-and-recover
// cycle: the seeded workload (with online scrub steps interleaved when
// opts.Scrub is set) under a schedule of bitflip/lostwrite/misdirected
// rules, optionally crashed; then recovery, a full online scrub cycle,
// and the oracle and probe checks.  The property verified is the
// integrity plane's contract: committed data is never *served* corrupt —
// every read returns the oracle image or a typed error, planted damage
// is repaired from redundancy on first contact (hot-path read, scrub or
// recovery), and damage beyond the redundancy surfaces as
// ErrUnrecoverableCorruption or explicit zeroed loss, never as garbage
// bytes.
//
// Two outcomes are legal only because the fault demands them: a
// misdirected write that lands in its target's own parity group damages
// two blocks of one group — beyond single parity — so
// ErrUnrecoverableCorruption anywhere in the run ends it as a pass; and
// a silent fault that destroys the only copy of a loser's before-image
// (e.g. the committed twin of a dirty group) may surface as explicit
// recovery-reported loss, which the oracle then requires to be zeroed.
func RunCorruptSchedule(opts Options, sched fault.Schedule) (*rda.RecoveryReport, error) {
	rep, _, err := runCorruptSchedule(opts, sched)
	return rep, err
}

// runCorruptSchedule is RunCorruptSchedule plus the engine's final stats
// snapshot, so the soak can aggregate the integrity-plane counters.
func runCorruptSchedule(opts Options, sched fault.Schedule) (*rda.RecoveryReport, rda.Stats, error) {
	opts.fill()
	db, err := rda.Open(dbConfig(opts))
	if err != nil {
		return nil, rda.Stats{}, err
	}
	rep, err := runCorruptOn(db, opts, sched)
	return rep, db.Stats(), err
}

func runCorruptOn(db *rda.DB, opts Options, sched fault.Schedule) (*rda.RecoveryReport, error) {
	plane := fault.NewPlane(sched)
	db.SetInjector(plane)
	d := newDriver(db, opts)
	silent := schedSilentFault(sched)
	misdirected := schedHasMisdirected(sched)
	legalDoubleFault := func(err error) bool {
		return misdirected && errors.Is(err, rda.ErrUnrecoverableCorruption)
	}
	crash, err := d.run()
	if err != nil {
		if legalDoubleFault(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("workload: %w", err)
	}
	var total *rda.RecoveryReport
	for round := 0; ; round++ {
		if crash != nil {
			if round > len(sched)+1 {
				return total, fmt.Errorf("crash recovery did not converge after %d rounds", round)
			}
			db.CrashHard()
			rep, err := db.Recover()
			if err != nil {
				if legalDoubleFault(err) {
					return total, nil
				}
				return total, fmt.Errorf("recover after %v: %w", crash, err)
			}
			if total == nil {
				total = rep
			} else {
				total.LostPages = append(total.LostPages, rep.LostPages...)
			}
			if len(rep.LostPages) > 0 {
				if !silent {
					return total, fmt.Errorf("recovery after %v lost pages %v with no silent fault in the schedule", crash, rep.LostPages)
				}
				d.noteLost(rep.LostPages)
			}
			if err := db.VerifyRecovered(); err != nil {
				return total, fmt.Errorf("after %v: %w", crash, err)
			}
		}
		// A full scrub cycle repairs whatever latent damage recovery (or
		// an uncrashed workload) left on the platter, so the raw-peek
		// verification below sees only clean blocks.
		crash, err = pumpScrub(db)
		if err != nil {
			if legalDoubleFault(err) {
				return total, nil
			}
			return total, fmt.Errorf("online scrub: %w", err)
		}
		if crash == nil {
			break
		}
	}
	if err := d.verify(); err != nil {
		return total, fmt.Errorf("after %v: %w", sched, err)
	}
	if err := d.probe(); err != nil {
		return total, fmt.Errorf("after %v: %w", sched, err)
	}
	return total, nil
}

// CorruptSoak performs iters randomized silent-corruption cycles — the
// machine check behind the integrity plane.  Iterations rotate the
// planted fault among a bit flip, a lost write and a misdirected write
// at a random write index, half of them additionally crash at a random
// later index, and every run interleaves online scrub steps with the
// workload (opts.Scrub is forced on).  Each run must satisfy the
// RunCorruptSchedule contract; like the other soaks, a whole run is
// reproducible from one seed and any failure from its printed seed and
// schedule.
func CorruptSoak(opts Options, iters int) (*Result, error) {
	opts.fill()
	opts.Scrub = true
	cfg := dbConfig(opts)
	meta := rand.New(rand.NewSource(opts.Seed))
	res := &Result{}
	for i := 0; i < iters; i++ {
		o := opts
		o.Seed = int64(meta.Uint64() >> 1)
		total, err := CountWrites(o)
		if err != nil {
			return nil, err
		}
		if total == 0 {
			continue
		}
		res.TotalWrites = total
		k := meta.Int63n(total)
		var rule fault.Rule
		switch i % 3 {
		case 0:
			rule = fault.BitFlip(k, meta.Intn(cfg.PageSize*8))
		case 1:
			rule = fault.LostWrite(k)
		default:
			rule = fault.Misdirected(k, meta.Intn(cfg.NumPages))
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
		res.Runs++
		rep, stats, err := runCorruptSchedule(o, sched)
		res.absorb(rep)
		res.absorbStats(stats)
		if err != nil {
			res.Violations = append(res.Violations, Violation{Seed: o.Seed, Schedule: sched, Err: err})
		}
	}
	return res, nil
}

// Soak performs iters randomized crash-and-recover cycles.  Each
// iteration derives a fresh workload seed and a random crash point (and
// randomly chooses clean vs torn) from opts.Seed, so a whole soak run is
// reproducible from one number and any single failure is reproducible
// from its printed seed and schedule.
func Soak(opts Options, iters int) (*Result, error) {
	opts.fill()
	meta := rand.New(rand.NewSource(opts.Seed))
	res := &Result{}
	for i := 0; i < iters; i++ {
		o := opts
		o.Seed = int64(meta.Uint64() >> 1)
		total, err := CountWrites(o)
		if err != nil {
			return nil, err
		}
		if total == 0 {
			continue
		}
		res.TotalWrites = total
		k := meta.Int63n(total)
		var sched fault.Schedule
		if meta.Intn(3) == 0 {
			sched = fault.Schedule{fault.TornWrite(k, meta.Intn(2) == 0)}
		} else {
			sched = fault.Schedule{fault.CrashAfterNWrites(k)}
		}
		res.Runs++
		if err := RunSchedule(o, sched); err != nil {
			res.Violations = append(res.Violations, Violation{Seed: o.Seed, Schedule: sched, Err: err})
		}
	}
	return res, nil
}
