package rda

import (
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/wal"
)

// TestCommitLogChargeIsOneForce pins what a commit without group commit
// pays the log: its log records reach stable storage as one sequential log
// write, so the commit is charged exactly the log pages that span covers —
// not the tail page again for every record.  Each of the k pages sits in
// its own parity group and the pool holds them all, so the EOT flush logs
// no before-image.  A FORCE commit to groups that keep their redundancy
// then appends nothing but its EOT: its pages are on the platter, and the
// array holds their second copy.  A ¬FORCE commit appends the k
// after-images REDO needs and the EOT, which its force writes together.
func TestCommitLogChargeIsOneForce(t *testing.T) {
	for _, eot := range []EOTDiscipline{Force, NoForce} {
		for _, layout := range []Layout{DataStriping, ParityStriping} {
			for _, packed := range []bool{false, true} {
				for k := 1; k <= 4; k++ {
					name := fmt.Sprintf("%v/packed=%v/k=%d", layout, packed, k)
					if eot == NoForce {
						name = "noforce/" + name
					}
					t.Run(name, func(t *testing.T) {
						cfg := smallConfig(PageLogging, eot, true, layout)
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
						images := k
						if eot == Force {
							images = 0
						}
						if n := after.Records - before.Records; n != int64(images+1) {
							t.Fatalf("commit appended %d log records, want %d after-images and the EOT", n, images)
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

// TestForceCommitLogsAfterImagesOnlyForDegradedGroups pins which pages a
// FORCE commit logs an after-image for: those whose group has lost a block
// and not been rebuilt, where the log holds the only second copy of the
// committed page.  Each of the k pages sits in its own parity group, and a
// two-frame pool steals all but the last before the EOT.  A transaction
// begun after the writes pins the log, so the commit's records outlive its
// EOT's truncation.
//   - healthy: no after-image, and no array read between the flush's last
//     write and the EOT (a stolen page is not read back);
//   - one drive down: one after-image per page;
//   - mid-rebuild: none for a page of a restored group, one for a page of
//     a group the rebuild has not reached.
func TestForceCommitLogsAfterImagesOnlyForDegradedGroups(t *testing.T) {
	for _, health := range []string{"healthy", "one-down", "mid-rebuild"} {
		for _, qparity := range []bool{false, true} {
			for _, layout := range []Layout{DataStriping, ParityStriping} {
				for k := 1; k <= 4; k++ {
					t.Run(fmt.Sprintf("%s/qparity=%v/%v/k=%d", health, qparity, layout, k), func(t *testing.T) {
						cfg := smallConfig(PageLogging, Force, true, layout)
						cfg.BufferFrames = 2
						cfg.QParity = qparity
						db, err := Open(cfg)
						if err != nil {
							t.Fatal(err)
						}
						restored := 0 // groups 0 … restored-1 keep their redundancy
						switch health {
						case "healthy":
							restored = k
						case "one-down", "mid-rebuild":
							if err := db.FailDisk(1); err != nil {
								t.Fatal(err)
							}
						}
						if health == "mid-rebuild" {
							restored = (k + 1) / 2
							if _, err := db.RebuildStep(restored); err != nil {
								t.Fatal(err)
							}
						}
						tx := mustBegin(t, db)
						pages := make([]page.PageID, k)
						for g := range pages {
							if db.store.GroupDegraded(page.GroupID(g)) != (g >= restored) {
								t.Fatalf("group %d degraded: %v", g, db.store.GroupDegraded(page.GroupID(g)))
							}
							pages[g] = db.arr.GroupPages(page.GroupID(g))[0]
							if err := tx.WritePage(PageID(pages[g]), fillPage(db, byte(g+1))); err != nil {
								t.Fatal(err)
							}
						}
						pin := mustBegin(t, db)
						last := db.arr.GroupPages(page.GroupID(db.arr.NumGroups() - 1))[0]
						if err := pin.WritePage(PageID(last), fillPage(db, 0x7f)); err != nil {
							t.Fatal(err)
						}
						stolen := 0
						for _, p := range pages {
							if db.pool.Frame(p) == nil {
								stolen++
							}
						}
						if k > 1 && stolen == 0 {
							t.Fatal("no page was stolen before the EOT")
						}

						probe := &eotProbe{log: db.log}
						db.SetInjector(probe)
						if err := tx.Commit(); err != nil {
							t.Fatal(err)
						}
						db.SetInjector(nil)

						images := make(map[page.PageID]int)
						var eot wal.LSN
						if err := db.log.Scan(db.log.FirstLSN(), func(r wal.Record) bool {
							switch {
							case r.Txn != tx.st.t.ID:
							case r.Type == wal.TypeAfterImage:
								images[r.Page]++
							case r.Type == wal.TypeEOT:
								eot = r.LSN
							}
							return true
						}); err != nil {
							t.Fatal(err)
						}
						if eot == 0 {
							t.Fatal("the commit's EOT is not on the log")
						}
						for g, p := range pages {
							want := 0
							if g >= restored {
								want = 1
							}
							if images[p] != want {
								t.Errorf("page %d (group %d) has %d after-images, want %d", p, g, images[p], want)
							}
						}
						if health == "healthy" {
							if reads := probe.readsBefore(eot); reads != 0 {
								t.Errorf("%d array reads between the flush's last write and the EOT", reads)
							}
						}
						if err := pin.Abort(); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

// eotProbe records every array access with the number of log records
// appended when it was issued.
type eotProbe struct {
	log      *wal.Log
	accesses []eotAccess
}

type eotAccess struct {
	read    bool
	records int64
}

func (p *eotProbe) Observe(a disk.Access) disk.Decision {
	p.accesses = append(p.accesses, eotAccess{
		read:    a.Op == disk.OpRead || a.Op == disk.OpReadMeta,
		records: p.log.Stats().Records,
	})
	return disk.Decision{}
}

// readsBefore counts the reads issued after the last write and before the
// log held the record at LSN eot.
func (p *eotProbe) readsBefore(eot wal.LSN) int {
	n := 0
	for _, a := range p.accesses {
		switch {
		case !a.read:
			n = 0
		case a.records < int64(eot):
			n++
		}
	}
	return n
}
