package rda

import (
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/wal"
)

// TestCommitLogChargeIsOneForce pins what a FORCE commit without group
// commit pays the log: its after-images and its EOT record reach stable
// storage as one sequential log write, so the commit is charged exactly
// the log pages that span covers — not the tail page again for every
// image.  Each of the k pages sits in its own parity group and the pool
// holds them all, so the EOT flush logs no before-image and the commit
// appends nothing but the k images and the EOT.
func TestCommitLogChargeIsOneForce(t *testing.T) {
	for _, layout := range []Layout{DataStriping, ParityStriping} {
		for _, packed := range []bool{false, true} {
			for k := 1; k <= 4; k++ {
				t.Run(fmt.Sprintf("%v/packed=%v/k=%d", layout, packed, k), func(t *testing.T) {
					cfg := smallConfig(PageLogging, Force, true, layout)
					cfg.BufferFrames = 64
					cfg.PackedLog = packed
					db, err := Open(cfg)
					if err != nil {
						t.Fatal(err)
					}
					tx := mustBegin(t, db)
					for g := 0; g < k; g++ {
						p := db.arr.GroupPages(page.GroupID(g))[0]
						if err := tx.WritePage(PageID(p), fillPage(db, byte(g+1))); err != nil {
							t.Fatal(err)
						}
					}
					before := db.log.Stats()
					if db.log.ForcedLSN() != wal.LSN(before.Records) {
						t.Fatalf("log holds unforced records before EOT")
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					after := db.log.Stats()
					if n := after.Records - before.Records; n != int64(k+1) {
						t.Fatalf("commit appended %d log records, want %d after-images and the EOT", n, k)
					}
					start, end := int(before.Bytes), int(after.Bytes)
					pages := forcedPages(cfg, start, end)
					if got, want := after.Transfers-before.Transfers, int64(pages*cfg.LogWriteCost); got != want {
						t.Fatalf("commit charged %d log transfers, one force over bytes [%d, %d) charges %d", got, start, end, want)
					}
				})
			}
		}
	}
}

// forcedPages is the number of log pages one force over the stream bytes
// [start, end) charges, the previous force having ended at start.
func forcedPages(cfg Config, start, end int) int {
	lp := cfg.LogPageSize
	if cfg.PackedLog {
		return (end-1)/lp - (start-1)/lp
	}
	return (end-1)/lp - start/lp + 1
}

// TestDegradedFlushForcesBeforeImagesOnce pins what a FORCE commit pays the
// log when every page it flushes lies in a degraded group, where each write
// goes through the logging path: its before-images reach stable storage as
// one log force ahead of the flush's first array write, and its
// after-images and EOT as a second.  Each of the k pages sits in its own
// group, all of which lost a block to the failed drive, and the pool holds
// them all.  A probe at the flush's first array write checks that every
// before-image is already on the log and forced.
func TestDegradedFlushForcesBeforeImagesOnce(t *testing.T) {
	for _, qparity := range []bool{false, true} {
		for _, layout := range []Layout{DataStriping, ParityStriping} {
			for _, packed := range []bool{false, true} {
				for k := 1; k <= 4; k++ {
					t.Run(fmt.Sprintf("qparity=%v/%v/packed=%v/k=%d", qparity, layout, packed, k), func(t *testing.T) {
						cfg := smallConfig(PageLogging, Force, true, layout)
						cfg.BufferFrames = 64
						cfg.QParity = qparity
						cfg.PackedLog = packed
						db, err := Open(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if err := db.FailDisk(1); err != nil {
							t.Fatal(err)
						}
						tx := mustBegin(t, db)
						for g := page.GroupID(0); g < page.GroupID(k); g++ {
							if !db.store.GroupDegraded(g) {
								t.Fatalf("group %d kept every block", g)
							}
							p := db.arr.GroupPages(g)[0]
							if err := tx.WritePage(PageID(p), fillPage(db, byte(g+1))); err != nil {
								t.Fatal(err)
							}
						}
						before := db.log.Stats()
						if db.log.ForcedLSN() != wal.LSN(before.Records) {
							t.Fatalf("log holds unforced records before EOT")
						}
						probe := &forceProbe{log: db.log, txn: tx.st.t.ID}
						db.SetInjector(probe)
						if err := tx.Commit(); err != nil {
							t.Fatal(err)
						}
						db.SetInjector(nil)

						after := db.log.Stats()
						if n := after.Records - before.Records; n != int64(2*k+1) {
							t.Fatalf("commit appended %d log records, want %d before-images, %d after-images and the EOT", n, k, k)
						}
						frame := frameBytes(wal.Record{Type: wal.TypeBeforeImage, Slot: wal.NoSlot, Image: make([]byte, cfg.PageSize)})
						start, mid, end := int(before.Bytes), int(before.Bytes)+k*frame, int(after.Bytes)
						pages := forcedPages(cfg, start, mid) + forcedPages(cfg, mid, end)
						if got, want := after.Transfers-before.Transfers, int64(pages*cfg.LogWriteCost); got != want {
							t.Fatalf("commit charged %d log transfers, a force over bytes [%d, %d) and one over [%d, %d) charge %d", got, start, mid, mid, end, want)
						}

						if !probe.sawWrite {
							t.Fatal("commit wrote nothing to the array")
						}
						if probe.err != nil {
							t.Fatal(probe.err)
						}
						if probe.images != k {
							t.Fatalf("first array write saw %d of the %d before-images on the log", probe.images, k)
						}
						if probe.forced < probe.last {
							t.Fatalf("first array write saw the log forced to LSN %d, before-images up to %d", probe.forced, probe.last)
						}
					})
				}
			}
		}
	}
}

// frameBytes is the number of log stream bytes record r takes.
func frameBytes(r wal.Record) int {
	l := wal.New(wal.Config{})
	l.AppendUnforced(r)
	return int(l.Stats().Bytes)
}

// forceProbe observes the disk access stream and records, at the first
// write it sees, how many of txn's before-images the log holds, the last
// one's LSN, and how far the log is forced.
type forceProbe struct {
	log          *wal.Log
	txn          page.TxID
	sawWrite     bool
	images       int
	last, forced wal.LSN
	err          error
}

func (f *forceProbe) Observe(a disk.Access) disk.Decision {
	if f.sawWrite || (a.Op != disk.OpWrite && a.Op != disk.OpWriteMeta) {
		return disk.Decision{}
	}
	f.sawWrite = true
	f.forced = f.log.ForcedLSN()
	f.err = f.log.Scan(f.log.FirstLSN(), func(r wal.Record) bool {
		if r.Type == wal.TypeBeforeImage && r.Txn == f.txn {
			f.images, f.last = f.images+1, r.LSN
		}
		return true
	})
	return disk.Decision{}
}
