package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/record"
	"repro/rda"
	"repro/rda/trace"
)

// poolSize is the number of pre-expanded payloads.  trace.Payload inside
// the op loop was 10 % of steady CPU in a prototype, so a write op picks
// pool[arg % poolSize] instead of expanding its argument.
const poolSize = 256

// shadow is the benchmark's own image of the database: for every page
// (page mode) or record slot (record mode) the pool index of the last
// committed write, or -1 if no committed write has touched it.
type shadow struct {
	last  []int16
	slots int // record slots per page; 1 in page mode
}

func newShadow(numPages, slots int) *shadow {
	sh := &shadow{last: make([]int16, numPages*slots), slots: slots}
	for i := range sh.last {
		sh.last[i] = -1
	}
	return sh
}

// pendingWrite is a write of a still-open transaction; it reaches the
// shadow when the transaction commits.
type pendingWrite struct {
	cell int // index into shadow.last
	pool int16
}

// driver replays one trace against the engine from one goroutine,
// keeping one open transaction per stream, exactly as trace.Replay does,
// but resumable: the phases replay consecutive stretches of one trace.
type driver struct {
	db   *rda.DB
	ops  []trace.Op
	pos  int
	base uint32 // added to every trace page id (the driver's page range)
	sh   *shadow
	pool [][]byte // pre-expanded page or record payloads

	open []*rda.Tx
	// skip marks streams whose transaction was lost in a crash: their
	// remaining ops are dropped up to and including the EOT op.
	skip []bool
	pend [][]pendingWrite

	tr *tracer // nil on an untraced run

	// Counters over the driver's lifetime.
	attempted, failed int64
	commits           int64
	payloadBytes      int64 // bytes of committed writes

	// lat collects Commit() wall times while non-nil; pre-allocated so
	// the loop allocates nothing per commit.
	lat []time.Duration
	// ckpt, when set, is called after every 64th commit (harness-driven
	// checkpoints).
	ckpt func() error
}

func newDriver(db *rda.DB, t *trace.Trace, base uint32, sh *shadow, pool [][]byte) *driver {
	n := int(t.Header.Streams) + 1
	d := &driver{
		db: db, ops: t.Ops, base: base, sh: sh, pool: pool,
		open: make([]*rda.Tx, n), skip: make([]bool, n), pend: make([][]pendingWrite, n),
	}
	for s := range d.pend {
		d.pend[s] = make([]pendingWrite, 0, 64)
	}
	return d
}

// replay executes ops until txns transactions have ended (commit or
// scripted abort), wrapping to the start of the trace when it runs out.
// Transactions of other streams stay open across the return.
func (d *driver) replay(txns int) error {
	for ended := 0; ended < txns; {
		if d.pos == len(d.ops) {
			d.pos = 0 // every transaction of the trace has ended here
		}
		i := d.pos
		op := &d.ops[i]
		d.pos++
		s := int(op.Stream)
		if d.skip[s] {
			if op.Kind.IsEOT() {
				d.skip[s] = false
			}
			continue
		}
		p := rda.PageID(op.Page + d.base)
		tx := d.open[s]
		var err error
		var t0 time.Time
		if d.tr.active() {
			t0 = time.Now()
		}
		d.attempted++
		switch op.Kind {
		case trace.OpBegin:
			d.open[s], err = d.db.Begin()
			d.tr.begin(s, t0, d.open[s])
		case trace.OpReadPage:
			_, err = tx.ReadPage(p)
			d.tr.call(kindRead, s, t0)
		case trace.OpWritePage:
			k := int16(op.Arg % poolSize)
			err = tx.WritePage(p, d.pool[k])
			d.tr.call(kindWrite, s, t0)
			d.pend[s] = append(d.pend[s], pendingWrite{cell: int(p), pool: k})
		case trace.OpReadRecord:
			_, err = tx.ReadRecord(p, int(op.Slot))
			if errors.Is(err, record.ErrEmptySlot) {
				err = nil // reading a never-written slot is benign
			}
			d.tr.call(kindRead, s, t0)
		case trace.OpWriteRecord:
			k := int16(op.Arg % poolSize)
			err = tx.WriteRecord(p, int(op.Slot), d.pool[k])
			d.tr.call(kindWrite, s, t0)
			d.pend[s] = append(d.pend[s], pendingWrite{cell: int(p)*d.sh.slots + int(op.Slot), pool: k})
		case trace.OpCommit:
			c0 := t0
			if d.lat != nil && c0.IsZero() {
				c0 = time.Now()
			}
			err = tx.Commit()
			if d.lat != nil {
				d.lat = append(d.lat, time.Since(c0))
			}
			d.tr.end(kindCommit, s, t0)
			if err == nil {
				for _, w := range d.pend[s] {
					d.sh.last[w.cell] = w.pool
					d.payloadBytes += int64(len(d.pool[w.pool]))
				}
				d.commits++
			}
			d.pend[s] = d.pend[s][:0]
			d.open[s] = nil
			ended++
			if err == nil && d.ckpt != nil && d.commits%64 == 0 {
				err = d.ckpt()
			}
		case trace.OpAbort:
			err = tx.Abort()
			d.tr.end(kindAbort, s, t0)
			d.pend[s] = d.pend[s][:0]
			d.open[s] = nil
			ended++
		}
		if err != nil {
			d.failed++
			return fmt.Errorf("op %d (%s stream %d page %d): %w", i, op.Kind, s, p, err)
		}
	}
	return nil
}

// crashed forgets the open transactions after Crash/CrashHard: they are
// losers, and the rest of their ops in the trace must not run.
func (d *driver) crashed() (losers int) {
	for s, tx := range d.open {
		if tx != nil {
			losers++
			d.open[s] = nil
			d.skip[s] = true
			d.pend[s] = d.pend[s][:0]
		}
	}
	return losers
}

// busyCells returns the shadow cells with uncommitted writes pending.
// Their stored state is legitimately either version (a no-log steal may
// have written the new one), and their locks are held, so the output
// check leaves them out.
func (d *driver) busyCells(into map[int]bool) {
	for _, ws := range d.pend {
		for _, w := range ws {
			into[w.cell] = true
		}
	}
}

// verifyShadow compares the stored database with the shadow image and
// returns the number of comparisons and of mismatches.  On a healthy
// array it reads the platters with PeekPage (uncharged); while a drive
// is down PeekPage would return the dead drive's stale blocks, so it
// reads through transactions, which reconstruct.  The caller has made
// the platters current (FORCE, or a checkpoint or restart under
// NOFORCE).
func verifyShadow(db *rda.DB, sh *shadow, pool [][]byte, busy map[int]bool, degraded bool) (checked, bad int64, err error) {
	numPages := len(sh.last) / sh.slots
	recordMode := db.Config().Logging == rda.RecordLogging
	var tx *rda.Tx
	for p := 0; p < numPages; p++ {
		cells := sh.last[p*sh.slots : (p+1)*sh.slots]
		written := false
		for i, k := range cells {
			if k >= 0 && !busy[p*sh.slots+i] {
				written = true
				break
			}
		}
		if !written {
			continue
		}
		var img []byte
		if degraded {
			// Short read-only transactions keep the lock table small.
			if tx == nil {
				if tx, err = db.Begin(); err != nil {
					return checked, bad, err
				}
			}
			img, err = tx.ReadPage(rda.PageID(p))
			if err == nil && p%512 == 511 {
				err = tx.Commit()
				tx = nil
			}
		} else {
			img, err = db.PeekPage(rda.PageID(p))
		}
		if err != nil {
			return checked, bad, fmt.Errorf("output check, page %d: %w", p, err)
		}
		if !recordMode {
			checked++
			if !bytes.Equal(img, pool[cells[0]]) {
				bad++
			}
			continue
		}
		v, err := record.View(img)
		if err != nil {
			return checked, bad, fmt.Errorf("output check, page %d: %w", p, err)
		}
		for i, k := range cells {
			if k < 0 || busy[p*sh.slots+i] {
				continue
			}
			checked++
			rec, err := v.Read(i)
			if err != nil || !bytes.Equal(rec, pool[k]) {
				bad++
			}
		}
	}
	if tx != nil {
		err = tx.Commit()
	}
	return checked, bad, err
}
