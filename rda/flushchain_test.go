package rda

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/fault"
	"repro/internal/page"
)

// The EOT flush of a group (flushGroup): the pages that must be logged
// first, the one the twin covers last, each write's redundancy read back
// beside its data write and handed to the next.  Held here to its transfer
// counts and its states, on synchronous and on queued drives.

// groupTraffic is a disk.Injector that counts the transfers one parity
// group sees, by kind, and can refuse the writes of one block.
type groupTraffic struct {
	mu   sync.Mutex
	red  map[diskarray.Loc]bool // the group's redundancy slots
	data map[diskarray.Loc]bool // its data pages

	redReads, redWrites, dataWrites, headerWrites int

	refuse *diskarray.Loc
	lose   int // the drive loses the group's lose-th redundancy write (1-based; 0: none)
}

var errRefused = errors.New("injected write error")

func watchGroup(db *DB, g page.GroupID) *groupTraffic {
	w := &groupTraffic{red: make(map[diskarray.Loc]bool), data: make(map[diskarray.Loc]bool)}
	for _, eq := range db.arr.Equations() {
		for twin := 0; twin < db.arr.ParityPages(); twin++ {
			w.red[db.arr.Loc(g, eq.Twin(twin))] = true
		}
	}
	for _, p := range db.arr.GroupPages(g) {
		w.data[db.arr.DataLoc(p)] = true
	}
	return w
}

func (w *groupTraffic) Observe(a disk.Access) disk.Decision {
	w.mu.Lock()
	defer w.mu.Unlock()
	loc := diskarray.Loc{Disk: a.Disk, Block: a.Block}
	if w.refuse != nil && *w.refuse == loc && a.Op == disk.OpWrite {
		return disk.Decision{Err: errRefused}
	}
	switch {
	case a.Op == disk.OpWriteMeta && (w.red[loc] || w.data[loc]):
		w.headerWrites++
	case a.Op == disk.OpRead && w.red[loc]:
		w.redReads++
	case a.Op == disk.OpWrite && w.red[loc]:
		w.redWrites++
		if w.redWrites == w.lose {
			return disk.Decision{LostWrite: true}
		}
	case a.Op == disk.OpWrite && w.data[loc]:
		w.dataWrites++
	}
	return disk.Decision{}
}

// chainStores are the stores the chain is held to: one and two equations,
// data striping on synchronous and queued drives, parity striping on
// queued ones.  The synchronous flush walks pages in page order, which
// splits a parity-striping group's pages into runs of one, so no chain
// forms there.
func chainStores() []Config {
	var out []Config
	for _, layout := range []Layout{DataStriping, ParityStriping} {
		for _, q := range []bool{false, true} {
			for _, depth := range []int{1, 8} {
				if layout == ParityStriping && depth == 1 {
					continue
				}
				cfg := smallConfig(PageLogging, Force, true, layout)
				cfg.QParity, cfg.QueueDepth = q, depth
				out = append(out, cfg)
			}
		}
	}
	return out
}

// equations is the number of redundancy equations cfg's array keeps.
func equations(cfg Config) int {
	if cfg.QParity {
		return 2
	}
	return 1
}

// chainName names cfg's store; data striping, the default layout, goes
// unnamed.
func chainName(cfg Config) string {
	eq := "P"
	if cfg.QParity {
		eq = "P+Q"
	}
	name := fmt.Sprintf("%s/depth%d", eq, cfg.QueueDepth)
	if cfg.Layout != DataStriping {
		name = cfg.Layout.String() + "/" + name
	}
	return name
}

// writePages has tx replace pages ps, each with an image of its own.
func writePages(t *testing.T, db *DB, tx *Tx, ps []page.PageID, seed byte) map[PageID][]byte {
	t.Helper()
	want := make(map[PageID][]byte)
	for _, p := range ps {
		want[PageID(p)] = fillPage(db, seed+byte(p))
		if err := tx.WritePage(PageID(p), want[PageID(p)]); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

func checkPlatter(t *testing.T, db *DB, want map[PageID][]byte) {
	t.Helper()
	for p, img := range want {
		got, err := db.PeekPage(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, img) {
			t.Fatalf("page %d on the platter is not the expected image", p)
		}
	}
	if err := db.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupFlushChain(t *testing.T) {
	for _, cfg := range chainStores() {
		eqs := equations(cfg)
		n := cfg.DataDisks
		for k := 1; k <= n; k++ {
			t.Run(fmt.Sprintf("%s/k=%d", chainName(cfg), k), func(t *testing.T) {
				db, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				loadAll(t, db)
				const g = page.GroupID(2)
				pages := db.arr.GroupPages(g)[:k]

				tx := mustBegin(t, db)
				want := writePages(t, db, tx, pages, 0x40)
				w := watchGroup(db, g)
				db.SetInjector(w)
				records := db.Stats().LogRecords
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				db.SetInjector(nil)
				records = db.Stats().LogRecords - records

				// The first write reads the redundancy and every flip reads its own
				// back for the next — as many reads as k separate write-backs, none
				// of them waited for alone — a data and an index write per page,
				// every page but the last logged, and no header rewritten: nothing
				// was demoted.  A whole stripe reads nothing, writes one index and
				// logs all.
				reads, redWrites, logged := k*eqs, k*eqs, k-1
				if k == n {
					reads, redWrites, logged = 0, eqs, n
				}
				if w.redReads != reads || w.redWrites != redWrites || w.dataWrites != k || w.headerWrites != 0 {
					t.Errorf("redundancy reads %d, redundancy writes %d, data writes %d, header rewrites %d; want %d, %d, %d, 0",
						w.redReads, w.redWrites, w.dataWrites, w.headerWrites, reads, redWrites, k)
				}
				// The before-images and the EOT; the group keeps its
				// redundancy, so no after-image.
				if want := int64(logged + 1); records != want {
					t.Errorf("%d log records, want %d (%d before-images)", records, want, logged)
				}
				if e, dirty := db.store.Dirty.Lookup(g); dirty {
					t.Errorf("group still dirty after the EOT: %+v", e)
				}
				checkPlatter(t, db, want)
			})
		}
	}
}

// TestGroupFlushChainAbort fails the commit after the chain has run — the
// write that meets the error is the last one of the EOT flush, in a second
// group — and aborts: until then the Dirty_Set names the chain's last page,
// and the abort restores the k pages from k − 1 logged images and one
// parity undo.
func TestGroupFlushChainAbort(t *testing.T) {
	for _, cfg := range chainStores() {
		eqs := equations(cfg)
		for k := 2; k < cfg.DataDisks; k++ {
			t.Run(fmt.Sprintf("%s/k=%d", chainName(cfg), k), func(t *testing.T) {
				db, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				imgs := loadAll(t, db)
				const g, other = page.GroupID(2), page.GroupID(5)
				pages := db.arr.GroupPages(g)[:k]
				victim := db.arr.GroupPages(other)[0]

				tx := mustBegin(t, db)
				writePages(t, db, tx, append(append([]page.PageID(nil), pages...), victim), 0x40)
				w := watchGroup(db, g)
				loc := db.arr.DataLoc(victim)
				w.refuse = &loc
				db.SetInjector(w)
				if err := tx.Commit(); !errors.Is(err, errRefused) {
					t.Fatalf("commit: %v, want the injected write error", err)
				}
				last := pages[k-1]
				if e, dirty := db.store.Dirty.Lookup(g); !dirty || e.Page != last || e.Txn != tx.st.t.ID {
					t.Fatalf("Dirty_Set of the group = %+v (dirty %v), want page %d of the committing transaction", e, dirty, last)
				}
				if w.headerWrites != 0 {
					t.Fatalf("%d header rewrites in the flush", w.headerWrites)
				}
				if err := db.VerifyParity(); err != nil {
					t.Fatalf("after the failed commit: %v", err)
				}

				w = watchGroup(db, g)
				db.SetInjector(w)
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
				db.SetInjector(nil)
				// k − 1 pages written back from their logged images, the last
				// from the twins, whose working index is then invalidated.
				if w.dataWrites != k || w.headerWrites != eqs {
					t.Errorf("abort: %d data writes, %d header writes; want %d, %d", w.dataWrites, w.headerWrites, k, eqs)
				}
				want := map[PageID][]byte{PageID(victim): imgs[PageID(victim)]}
				for _, p := range pages {
					want[PageID(p)] = imgs[PageID(p)]
				}
				checkPlatter(t, db, want)
			})
		}
	}
}

// TestGroupFlushChainLostParityWrite: the drive loses a write of the
// chain's last flip — the index that is the committed twin once the steal
// has landed, the only way back to the stolen page's old contents.  The
// flip's read-back meets the ledger, hands nothing on, and the steal reads
// for itself and has the page repaired — P or Q alike, by the one verified
// read — while every data page of the group is still committed; the commit
// then fails elsewhere and the abort restores all k pages.  A steal handed
// the image from memory, unread, would leave the stale twin for the undo to
// trip over.  The P write on every chain store, the Q write on the P+Q ones.
func TestGroupFlushChainLostParityWrite(t *testing.T) {
	for _, cfg := range chainStores() {
		const k = 3
		for _, eq := range []diskarray.Eq{diskarray.P, diskarray.Q}[:equations(cfg)] {
			// Q before P: the last flip's P write is the group's
			// (k − 1)·eqs-th redundancy write, its Q write the one before.
			lose, name := (k-1)*equations(cfg), chainName(cfg)
			if eq == diskarray.Q {
				lose, name = lose-1, name+"/Q write"
			}
			t.Run(name, func(t *testing.T) {
				db, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				imgs := loadAll(t, db)
				const g, other = page.GroupID(2), page.GroupID(5)
				pages := db.arr.GroupPages(g)[:k]
				victim := db.arr.GroupPages(other)[0]

				tx := mustBegin(t, db)
				writePages(t, db, tx, append(append([]page.PageID(nil), pages...), victim), 0x40)
				w := watchGroup(db, g)
				loc := db.arr.DataLoc(victim)
				w.refuse, w.lose = &loc, lose
				db.SetInjector(w)
				if err := tx.Commit(); !errors.Is(err, errRefused) {
					t.Fatalf("commit: %v, want the injected write error", err)
				}
				db.SetInjector(nil)
				if e, dirty := db.store.Dirty.Lookup(g); !dirty || e.Page != pages[k-1] {
					t.Fatalf("Dirty_Set of the group = %+v (dirty %v), want page %d", e, dirty, pages[k-1])
				}
				if n := db.Stats().CorruptBlocksDetected; n != 1 {
					t.Fatalf("%d corrupt block(s) detected during the flush, want the lost write", n)
				}
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
				want := map[PageID][]byte{PageID(victim): imgs[PageID(victim)]}
				for _, p := range pages {
					want[PageID(p)] = imgs[PageID(p)]
				}
				checkPlatter(t, db, want)
			})
		}
	}
}

// TestGroupFlushOutsideTheChain: a group that is dirty when the flush
// reaches it, and a degraded one, go page by page through the steal policy.
func TestGroupFlushOutsideTheChain(t *testing.T) {
	for _, cfg := range chainStores() {
		eqs := equations(cfg)
		t.Run(chainName(cfg)+"/dirty-at-entry", func(t *testing.T) {
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			loadAll(t, db)
			const g = page.GroupID(2)
			pages := db.arr.GroupPages(g)[:3]

			tx := mustBegin(t, db)
			want := writePages(t, db, tx, pages[:1], 0x40)
			// Replacement steals the first page before the EOT.
			if err := db.pool.FlushPage(pages[0]); err != nil {
				t.Fatal(err)
			}
			if e, dirty := db.store.Dirty.Lookup(g); !dirty || e.Page != pages[0] {
				t.Fatalf("the early write-back was not a no-log steal: %+v", e)
			}
			for p, img := range writePages(t, db, tx, pages[1:], 0x40) {
				want[p] = img
			}
			w := watchGroup(db, g)
			db.SetInjector(w)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			db.SetInjector(nil)
			// The second page demotes the steal (one header a slot), the third
			// is stolen in the group that left clean.
			if w.headerWrites != eqs || w.dataWrites != 2 {
				t.Errorf("%d header rewrites, %d data writes; want %d, 2", w.headerWrites, w.dataWrites, eqs)
			}
			checkPlatter(t, db, want)
		})
		t.Run(chainName(cfg)+"/degraded", func(t *testing.T) {
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			loadAll(t, db)
			const g = page.GroupID(2)
			pages := db.arr.GroupPages(g)
			if err := db.FailDisk(db.arr.DataLoc(pages[3]).Disk); err != nil {
				t.Fatal(err)
			}
			tx := mustBegin(t, db)
			want := writePages(t, db, tx, pages[:2], 0x40)
			if err := db.flushForce(tx.st); err != nil {
				t.Fatal(err)
			}
			if e, dirty := db.store.Dirty.Lookup(g); dirty {
				t.Fatalf("a degraded group took a no-log steal: %+v", e)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			for p, img := range want {
				tx := mustBegin(t, db)
				got, err := tx.ReadPage(p)
				if err != nil || !bytes.Equal(got, img) {
					t.Fatalf("page %d after a degraded flush: %v", p, err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.VerifyParity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGroupFlushCrashAtEveryWrite cuts the EOT flush of one group — a chain
// of k < N pages, and the whole stripe — before each of its writes, clean and
// torn, and restarts: the transaction is a loser wherever the cut fell, so
// every page comes back as loaded.
func TestGroupFlushCrashAtEveryWrite(t *testing.T) {
	for _, cfg := range chainStores() {
		for k := 2; k <= cfg.DataDisks; k++ {
			for _, torn := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/k=%d/torn=%v", chainName(cfg), k, torn), func(t *testing.T) {
					for cut := int64(0); ; cut++ {
						db, err := Open(cfg)
						if err != nil {
							t.Fatal(err)
						}
						imgs := loadAll(t, db)
						const g = page.GroupID(2)
						pages := db.arr.GroupPages(g)[:k]
						tx := mustBegin(t, db)
						writePages(t, db, tx, pages, 0x40)
						rule := fault.CrashAfterNWrites(cut)
						if torn {
							rule = fault.TornWrite(cut, cut%2 == 0)
						}
						db.SetInjector(fault.NewPlane(fault.Schedule{rule}))
						crash := catchCrash(func() {
							if err := tx.Commit(); err != nil {
								t.Fatalf("cut %d: commit: %v", cut, err)
							}
						})
						if crash == nil {
							if cut < int64(k) {
								t.Fatalf("the flush made only %d writes", cut)
							}
							return // the cut lies past the flush
						}
						db.SetInjector(nil)
						db.CrashHard()
						if _, err := db.Recover(); err != nil {
							t.Fatalf("cut %d: recover: %v", cut, err)
						}
						if err := db.VerifyRecovered(); err != nil {
							t.Fatalf("cut %d: %v", cut, err)
						}
						want := make(map[PageID][]byte)
						for _, p := range db.arr.GroupPages(g) {
							want[PageID(p)] = imgs[PageID(p)]
						}
						checkPlatter(t, db, want)
					}
				})
			}
		}
	}
}
