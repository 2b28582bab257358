package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/record"
	"repro/rda"
)

// Options controls a replay run.
type Options struct {
	// CheckpointEvery, when positive, takes an action-consistent
	// checkpoint whenever this many page transfers have elapsed since the
	// last one (¬FORCE families; the model's interval I).
	CheckpointEvery int64
	// CrashAtEnd crashes the engine after the last op and runs recovery,
	// charging its transfers to the run — the model's c_s term.  Open
	// transactions become losers instead of being aborted.
	CrashAtEnd bool
	// MaxTransfers, when positive, is the availability interval T: the
	// replay stops once this many transfers have been consumed; remaining
	// ops are dropped and open transactions aborted (or crashed, with
	// CrashAtEnd).  A trace that runs out before T is an error, not a
	// shorter interval.
	MaxTransfers int64
}

// Result is a replay measurement.
type Result struct {
	// Committed and Aborted count transactions by outcome.  Aborted
	// includes only trace-scripted aborts, not crash losers.
	Committed int64
	Aborted   int64
	// OpsApplied is the number of trace ops executed (all of them unless
	// MaxTransfers cut the run short).
	OpsApplied int
	// Transfers is the page transfers consumed, including checkpoints
	// and, with CrashAtEnd, crash recovery.
	Transfers int64
	// RecoveryTransfers is the crash recovery share of Transfers.
	RecoveryTransfers int64
	// Digest commits to the replay's observable behaviour: a SHA-256
	// chain over every transaction outcome (op index, stream, kind) and
	// the final on-disk image of every page.  Two replays of one trace
	// on one configuration must produce equal digests — that is the
	// trace plane's determinism contract.
	Digest string
	// Stats is the engine's counter snapshot at the end of the run
	// (before the digest's uncharged verification reads).  With
	// CrashAtEnd the crash discards the buffer pool and its counters, so
	// BufferHits, BufferMisses and Steals are those read just before it.
	Stats rda.Stats
}

// Replay errors.
var (
	ErrIncompatible = errors.New("trace: trace incompatible with database")
)

// Compatible checks that a database can replay the trace: matching
// logging mode, page size (payload expansion is size-dependent), record
// size in record mode, and enough pages.
func Compatible(db *rda.DB, t *Trace) error {
	cfg := db.Config()
	if cfg.Logging != t.Header.Mode.LoggingMode() {
		return fmt.Errorf("%w: trace is %s-mode, database is %s", ErrIncompatible, t.Header.Mode, cfg.Logging)
	}
	if cfg.PageSize != int(t.Header.PageSize) {
		return fmt.Errorf("%w: trace page size %d, database %d", ErrIncompatible, t.Header.PageSize, cfg.PageSize)
	}
	if db.NumPages() < int(t.Header.NumPages) {
		return fmt.Errorf("%w: trace addresses %d pages, database has %d", ErrIncompatible, t.Header.NumPages, db.NumPages())
	}
	if t.Header.Mode == ModeRecord && cfg.RecordSize != int(t.Header.RecordSize) {
		return fmt.Errorf("%w: trace record size %d, database %d", ErrIncompatible, t.Header.RecordSize, cfg.RecordSize)
	}
	return nil
}

// Replay executes the trace against the database in trace order, one op
// at a time, keeping one open transaction per stream.  The driver is
// single-threaded, so the interleaving — and therefore the commit
// history, the transfer counts and the final database image — is fully
// determined by the trace; see Result.Digest.
func Replay(db *rda.DB, t *Trace, opts Options) (Result, error) {
	var res Result
	if err := Compatible(db, t); err != nil {
		return res, err
	}
	db.ResetStats()
	h := sha256.New()
	var ev [16]byte
	outcome := func(opIdx int, op Op) {
		binary.LittleEndian.PutUint64(ev[:8], uint64(opIdx))
		ev[8] = op.Stream
		ev[9] = byte(op.Kind)
		h.Write(ev[:10])
	}

	transfers := func() int64 { return db.Stats().TotalTransfers() }
	open := make([]*rda.Tx, int(t.Header.Streams)+1)
	var lastCkpt int64

	pageSize := int(t.Header.PageSize)
	recSize := int(t.Header.RecordSize)

	for i, op := range t.Ops {
		if opts.MaxTransfers > 0 && transfers() >= opts.MaxTransfers {
			break
		}
		if opts.CheckpointEvery > 0 && transfers()-lastCkpt >= opts.CheckpointEvery {
			if err := db.Checkpoint(); err != nil {
				return res, fmt.Errorf("trace: checkpoint at op %d: %w", i, err)
			}
			lastCkpt = transfers()
		}
		s := int(op.Stream)
		if s >= len(open) {
			return res, fmt.Errorf("trace: op %d stream %d out of range", i, s)
		}
		var err error
		switch op.Kind {
		case OpBegin:
			if open[s] != nil {
				return res, fmt.Errorf("trace: op %d begins stream %d with a transaction open", i, s)
			}
			open[s], err = db.Begin()
		case OpCommit, OpAbort:
			if open[s] == nil {
				return res, fmt.Errorf("trace: op %d ends stream %d with no transaction open", i, s)
			}
			if op.Kind == OpCommit {
				err = open[s].Commit()
				res.Committed++
			} else {
				err = open[s].Abort()
				res.Aborted++
			}
			open[s] = nil
			if err == nil {
				outcome(i, op)
			}
		case OpReadPage:
			if open[s] == nil {
				return res, fmt.Errorf("trace: op %d on stream %d with no transaction open", i, s)
			}
			_, err = open[s].ReadPage(rda.PageID(op.Page))
		case OpWritePage:
			if open[s] == nil {
				return res, fmt.Errorf("trace: op %d on stream %d with no transaction open", i, s)
			}
			err = open[s].WritePage(rda.PageID(op.Page), Payload(op.Arg, pageSize))
		case OpReadRecord:
			if open[s] == nil {
				return res, fmt.Errorf("trace: op %d on stream %d with no transaction open", i, s)
			}
			_, err = open[s].ReadRecord(rda.PageID(op.Page), int(op.Slot))
			if errors.Is(err, record.ErrEmptySlot) {
				err = nil // reading a never-written slot is benign
			}
		case OpWriteRecord:
			if open[s] == nil {
				return res, fmt.Errorf("trace: op %d on stream %d with no transaction open", i, s)
			}
			err = open[s].WriteRecord(rda.PageID(op.Page), int(op.Slot), Payload(op.Arg, recSize))
		default:
			return res, fmt.Errorf("trace: op %d has unknown kind %d", i, op.Kind)
		}
		if err != nil {
			return res, fmt.Errorf("trace: op %d (%s stream %d page %d): %w", i, op.Kind, s, op.Page, err)
		}
		res.OpsApplied++
	}
	if opts.MaxTransfers > 0 && res.OpsApplied == len(t.Ops) && transfers() < opts.MaxTransfers {
		return res, fmt.Errorf("trace: %d ops ran out at %d of %d transfers", len(t.Ops), transfers(), opts.MaxTransfers)
	}

	// Close out the run: crash the open transactions into losers, or
	// abort them in stream order (deterministic either way).
	var preCrash rda.Stats
	if opts.CrashAtEnd {
		preCrash = db.Stats()
		db.Crash()
		if _, err := db.Recover(); err != nil {
			return res, fmt.Errorf("trace: end-of-run recovery: %w", err)
		}
		res.RecoveryTransfers = transfers() - preCrash.TotalTransfers()
		for s := range open {
			open[s] = nil
		}
	} else {
		for s, tx := range open {
			if tx == nil {
				continue
			}
			if err := tx.Abort(); err != nil {
				return res, fmt.Errorf("trace: draining stream %d: %w", s, err)
			}
			open[s] = nil
		}
	}

	res.Stats = db.Stats()
	res.Transfers = res.Stats.TotalTransfers()
	if opts.CrashAtEnd {
		res.Stats.BufferHits = preCrash.BufferHits
		res.Stats.BufferMisses = preCrash.BufferMisses
		res.Stats.Steals = preCrash.Steals
	}

	// Fold the final on-disk image into the digest.  PeekPage is
	// uncharged, so the verification scan does not perturb the counters
	// captured above.
	for p := 0; p < int(t.Header.NumPages); p++ {
		img, err := db.PeekPage(rda.PageID(p))
		if err != nil {
			return res, fmt.Errorf("trace: digesting page %d: %w", p, err)
		}
		h.Write(img)
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))
	return res, nil
}
