package rda

import (
	"fmt"

	"repro/internal/diskarray"
	"repro/internal/page"
	"repro/internal/wal"
)

// Stats is a snapshot of the engine's cost and activity counters.  All
// disk and log costs are in page transfers, the unit of the paper's
// performance model, so relative throughput between configurations is
// directly comparable with the analytical results.
type Stats struct {
	// DiskReads and DiskWrites count page transfers against the array
	// (data and parity pages, header reads included).
	DiskReads  int64
	DiskWrites int64
	// LogWriteTransfers counts transfers charged for forced log pages.
	LogWriteTransfers int64
	// LogReadTransfers counts transfers charged for recovery-time and
	// rollback-time log reads.
	LogReadTransfers int64
	// LogRecords and LogBytes describe log volume.
	LogRecords int64
	LogBytes   int64

	// BufferHits, BufferMisses and Steals describe buffer activity; a
	// steal is a dirty frame written back by replacement.
	BufferHits   int64
	BufferMisses int64
	Steals       int64

	// TxStarted, TxCommitted and TxAborted count transactions.
	TxStarted   int64
	TxCommitted int64
	TxAborted   int64

	// Recoveries counts completed restarts.
	Recoveries int64

	// Self-healing counters (see DESIGN.md §"Self-healing I/O").
	// IORetries counts transient I/O errors absorbed by the retry layer;
	// RetryBackoffUnits is the deterministic backoff charged before the
	// retries (abstract units, never slept); AutoFailStops counts disks
	// fail-stopped automatically after consecutive errors.
	IORetries         int64
	RetryBackoffUnits int64
	AutoFailStops     int64
	// DegradedReads and DegradedWrites count operations served around a
	// down disk (reads reconstructed from redundancy, writes maintaining
	// parity without the dead member); ParityRepairs counts redundancy
	// pages (P or Q) a verified read found corrupt and rewrote in place
	// from the group; RebuiltGroups counts the groups the online rebuild
	// has restored under the array health the engine adopted last: it
	// restarts with every adopted health that has drives down (a disk
	// loss, a replacement's death, a restart, the rebuild's drive swap)
	// and keeps a finished rebuild's count once the array is healthy.
	DegradedReads  int64
	DegradedWrites int64
	ParityRepairs  int64
	RebuiltGroups  int64

	// Integrity-plane counters (see DESIGN.md §"The integrity plane").
	// CorruptBlocksDetected counts blocks that failed end-to-end
	// verification (checksum, location stamp or write ledger) anywhere —
	// hot-path reads, scrubbing or recovery; ReadRepairs counts data
	// blocks transparently rebuilt from redundancy on the read path;
	// UnrecoverableCorruption counts reads refused with
	// ErrUnrecoverableCorruption because a second fault exhausted the
	// group's redundancy; ScrubbedGroups and ScrubRepairs count parity
	// groups fully verified and blocks rewritten by the scrubber.
	CorruptBlocksDetected   int64
	ReadRepairs             int64
	UnrecoverableCorruption int64
	ScrubbedGroups          int64
	ScrubRepairs            int64
}

// TotalTransfers returns the model's cost measure: every page transfer
// against the array plus every transfer charged for the log.
func (s Stats) TotalTransfers() int64 {
	return s.DiskReads + s.DiskWrites + s.LogWriteTransfers + s.LogReadTransfers
}

// Stats returns a snapshot of the counters.  Every component keeps its
// own synchronized counters, so the snapshot is assembled under the
// shared gate; with transactions in flight the counters are each exact
// but mutually approximate (a live operation may land between reads).
func (db *DB) Stats() Stats {
	db.gate.RLock()
	defer db.gate.RUnlock()
	as := db.arr.Stats()
	ls := db.log.Stats()
	bs := db.pool.Stats()
	hs := db.arr.Healing()
	ds := db.store.DegradedCounters()
	is := db.store.IntegrityCounters()
	started, committed, aborted := db.tm.Counts()
	db.mu.Lock()
	recoveries := db.recoveries
	db.mu.Unlock()
	return Stats{
		DiskReads:         as.Reads,
		DiskWrites:        as.Writes,
		LogWriteTransfers: ls.Transfers,
		LogReadTransfers:  ls.ReadTransfers,
		LogRecords:        ls.Records,
		LogBytes:          ls.Bytes,
		BufferHits:        bs.Hits,
		BufferMisses:      bs.Misses,
		Steals:            bs.Steals,
		TxStarted:         started,
		TxCommitted:       committed,
		TxAborted:         aborted,
		Recoveries:        recoveries,
		IORetries:         int64(hs.Retries),
		RetryBackoffUnits: int64(hs.BackoffUnits),
		AutoFailStops:     int64(hs.AutoFailStops),
		DegradedReads:     int64(ds.DegradedReads),
		DegradedWrites:    int64(ds.DegradedWrites),
		ParityRepairs:     int64(ds.ParityRepairs),
		RebuiltGroups:     int64(ds.RebuiltGroups),

		CorruptBlocksDetected:   int64(is.CorruptBlocksDetected),
		ReadRepairs:             int64(is.ReadRepairs),
		UnrecoverableCorruption: int64(is.UnrecoverableCorruption),
		ScrubbedGroups:          int64(is.ScrubbedGroups),
		ScrubRepairs:            int64(is.ScrubRepairs),
	}
}

// ResetStats zeroes every counter that measures work done — array
// transfers, log transfers and volume, buffer activity, the self-healing
// retry layer, degraded serving and the integrity plane — so a Stats()
// taken afterwards is a delta since the reset in all of them.  Four
// totals describe the engine's history rather than an interval and stay
// cumulative: TxStarted, TxCommitted, TxAborted and Recoveries.
// RebuiltGroups stays too: it is the running rebuild's progress under the
// adopted health generation and restarts with the next one that has
// drives down.
func (db *DB) ResetStats() {
	db.gate.RLock()
	defer db.gate.RUnlock()
	db.arr.ResetStats()
	db.log.ResetStats()
	db.pool.ResetStats()
	db.store.ResetCounters()
}

// VerifyParity checks the parity invariant of every group (see
// core.Store.VerifyParityInvariant).  It performs uncharged verification
// reads under the exclusive gate — a whole-array scan cannot tolerate
// concurrent writers — so it quiesces live transactions for its
// duration.  Intended for tests and examples.
func (db *DB) VerifyParity() error {
	db.gate.Lock()
	defer db.gate.Unlock()
	return db.store.VerifyParityInvariant()
}

// PeekPage returns the current on-disk contents of a page without
// charging transfers.  Verification aid for tests and examples; not part
// of the transactional interface.
func (db *DB) PeekPage(p PageID) ([]byte, error) {
	db.gate.RLock()
	defer db.gate.RUnlock()
	if int(p) >= db.NumPages() {
		return nil, ErrBadPage
	}
	h := db.hold()
	defer db.unhold(h)
	h.Acquire(db.arr.GroupOf(page.PageID(p)))
	return db.arr.PeekData(page.PageID(p))
}

// GroupInfo describes the recovery state of one parity group — the
// observable anatomy of the paper's twin-page scheme.  Introspection
// aid; all reads are uncharged.
type GroupInfo struct {
	// Group is the parity group number of the queried page.
	Group uint32
	// Pages are the logical pages sharing the group.
	Pages []PageID
	// Dirty reports whether the group is in the Figure 3 dirty state.
	Dirty bool
	// DirtyPage and DirtyTxn identify the no-UNDO-logging write that
	// dirtied the group (meaningful when Dirty).
	DirtyPage PageID
	DirtyTxn  uint64
	// CurrentTwin is the index of the current parity page per the
	// in-memory bitmap; single-parity arrays always use twin 0.
	CurrentTwin int
	// TwinStates are the on-disk header states of the parity page(s):
	// "committed", "obsolete", "working" or "invalid".
	TwinStates []string
	// TwinTimestamps are the Figure 7 timestamps of the parity page(s).
	TwinTimestamps []uint64
	// QStates and QTimestamps mirror TwinStates/TwinTimestamps for the
	// second redundancy page of each index on a P+Q array; empty
	// otherwise.  Q headers track their P partner in lockstep, so a
	// mismatch here is the fingerprint of a write cut in half.
	QStates     []string
	QTimestamps []uint64
}

// InspectGroup reports the recovery state of the parity group holding
// page p.
func (db *DB) InspectGroup(p PageID) (GroupInfo, error) {
	db.gate.RLock()
	defer db.gate.RUnlock()
	if int(p) >= db.NumPages() {
		return GroupInfo{}, ErrBadPage
	}
	g := db.arr.GroupOf(page.PageID(p))
	// The group latch freezes the group's steal protocol state, so the
	// snapshot is internally consistent even with live transactions on
	// other groups.
	h := db.hold()
	defer db.unhold(h)
	h.Acquire(g)
	info := GroupInfo{Group: uint32(g)}
	for _, q := range db.arr.GroupPages(g) {
		info.Pages = append(info.Pages, PageID(q))
	}
	if db.store.Twins != nil {
		info.CurrentTwin = db.store.Twins.Current(g)
	}
	if db.store.Dirty != nil {
		if e, dirty := db.store.Dirty.Lookup(g); dirty {
			info.Dirty = true
			info.DirtyPage = PageID(e.Page)
			info.DirtyTxn = uint64(e.Txn)
		}
	}
	for _, eq := range db.arr.Equations() {
		for twin := 0; twin < db.arr.ParityPages(); twin++ {
			meta, err := db.arr.PeekMeta(g, eq.Twin(twin))
			if err != nil {
				return info, err
			}
			if eq == diskarray.P {
				info.TwinStates = append(info.TwinStates, meta.State.String())
				info.TwinTimestamps = append(info.TwinTimestamps, uint64(meta.Timestamp))
			} else {
				info.QStates = append(info.QStates, meta.State.String())
				info.QTimestamps = append(info.QTimestamps, uint64(meta.Timestamp))
			}
		}
	}
	return info, nil
}

// DumpLog calls fn for every log record, oldest first, with a rendered
// one-line description.  Diagnostic aid (cmd/waldump); uncharged.
func (db *DB) DumpLog(fn func(line string) bool) error {
	// The log is internally synchronized and never replaced for the
	// lifetime of the DB, so the scan needs no engine lock.
	return db.log.Scan(1, func(r wal.Record) bool {
		return fn(renderLogRecord(r))
	})
}

// renderLogRecord formats one record for humans.
func renderLogRecord(r wal.Record) string {
	f, floored := r.Floor()
	switch {
	case r.Type == wal.TypeCheckpoint:
		return fmt.Sprintf("%6d  CKPT    floor=%d active=%v", r.LSN, f, r.Active)
	case floored:
		return fmt.Sprintf("%6d  %-6s  txn=%d floor=%d", r.LSN, r.Type, r.Txn, f)
	case r.Type == wal.TypeEOT, r.Type == wal.TypeAbort:
		return fmt.Sprintf("%6d  %-6s  txn=%d", r.LSN, r.Type, r.Txn)
	default:
		gran := "page"
		slot := ""
		if r.Slot != wal.NoSlot {
			gran = "record"
			slot = fmt.Sprintf(".%d", r.Slot)
		}
		return fmt.Sprintf("%6d  %-6s  txn=%d %s %d%s (%d bytes)",
			r.LSN, r.Type, r.Txn, gran, r.Page, slot, len(r.Image))
	}
}

// DiskTransfers returns per-disk page transfer totals, indexed by disk
// number.  Rotated parity exists to keep these balanced (Section 3.1);
// tests and benchmarks use this to verify it.
func (db *DB) DiskTransfers() []int64 {
	db.gate.RLock()
	defer db.gate.RUnlock()
	per := db.arr.DiskStats()
	out := make([]int64, len(per))
	for i, s := range per {
		out[i] = s.Transfers()
	}
	return out
}
