package rda

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/page"
	"repro/internal/wal"
)

// TestRecycledUndoTableStartsEmpty: a transaction's undo table is the one
// an earlier transaction handed back at its EOT, entries and all.  Under
// page and record logging the reused table holds only the new
// transaction's entry — one image, its own, nothing logged or stolen — and
// an abort through it restores exactly that page, leaving every page the
// earlier transaction committed as it was.
func TestRecycledUndoTableStartsEmpty(t *testing.T) {
	for _, logging := range []LoggingMode{PageLogging, RecordLogging} {
		t.Run(fmt.Sprint(logging), func(t *testing.T) {
			cfg := smallConfig(logging, NoForce, true, DataStriping)
			cfg.BufferFrames = 64
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			write := func(tx *Tx, p PageID, seed byte) {
				t.Helper()
				var err error
				if logging == PageLogging {
					err = tx.WritePage(p, fillPage(db, seed))
				} else {
					rec := bytes.Repeat([]byte{seed}, cfg.RecordSize)
					for slot := 0; slot < db.RecordsPerPage() && err == nil; slot++ {
						err = tx.WriteRecord(p, slot, rec)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			snapshot := func() [][]byte {
				t.Helper()
				var out [][]byte
				for p := PageID(0); p < 6; p++ {
					b, err := db.PeekPage(p)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, b)
				}
				return out
			}

			first := mustBegin(t, db)
			for p := PageID(0); p < 6; p++ {
				write(first, p, byte(0x10+p))
			}
			if err := first.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			want := snapshot()

			second := mustBegin(t, db)
			write(second, 3, 0x77)
			st := second.st
			if cap(st.undo) < 6 {
				t.Fatalf("the second transaction's table (cap %d) is not the first one's", cap(st.undo))
			}
			if len(st.undo) != 1 {
				t.Fatalf("the recycled table holds %d entries, want 1", len(st.undo))
			}
			e := st.undo[0]
			if e.page != 3 || e.viaLog || e.stolen != nil || len(e.images) != max(1, db.RecordsPerPage()) {
				t.Fatalf("recycled entry = page %d viaLog %v stolen %v with %d images", e.page, e.viaLog, e.stolen != nil, len(e.images))
			}
			for _, r := range e.images {
				if r.Txn != st.t.ID || r.Page != 3 || r.LSN != 0 || r.Type != wal.TypeBeforeImage {
					t.Fatalf("recycled entry carries a foreign image: %+v", r)
				}
			}
			if err := second.Abort(); err != nil {
				t.Fatal(err)
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for p, b := range snapshot() {
				if !bytes.Equal(b, want[p]) {
					t.Fatalf("page %d changed across the abort through a recycled table", p)
				}
			}
		})
	}
}

// TestRecycledLatchSetsComeBackEmpty: goroutines on groups of their own
// run transactions through a pool too small for them, so their evictions
// try-latch one another's groups, and a third of them abort.  Every
// operation's latch set is a recycled one; when all have finished, every
// group's latch is free again and the data is what the commits wrote.  A
// transaction keeps to one group: one whose commit latched several could
// wait, holding them, for a group whose latch an operation holds while
// its eviction waits for theirs (ROADMAP.md, "Small open ends").
func TestRecycledLatchSetsComeBackEmpty(t *testing.T) {
	cfg := smallConfig(PageLogging, Force, true, DataStriping)
	cfg.BufferFrames = 4
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers, txns = 4, 30
	width := db.NumPages() / db.NumGroups()
	final := make([][]byte, db.NumPages())
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				tx, err := db.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				seed := byte(w<<5 + i)
				g := w + workers*(i%(db.NumGroups()/workers)) // worker w's groups only
				var wrote []PageID
				for k := 0; k < 3; k++ {
					p := PageID(g*width + (i+k)%width)
					if _, err := tx.ReadPage(p); err != nil {
						t.Error(err)
						return
					}
					if err := tx.WritePage(p, fillPage(db, seed+byte(k))); err != nil {
						t.Error(err)
						return
					}
					wrote = append(wrote, p)
				}
				if i%3 == 2 {
					if err := tx.Abort(); err != nil {
						t.Error(err)
					}
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				for k, p := range wrote {
					final[p] = fillPage(db, seed+byte(k))
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	h := db.latches.NewHeld()
	defer h.ReleaseAll()
	for g := 0; g < db.NumGroups(); g++ {
		if !h.TryAcquire(page.GroupID(g)) {
			t.Fatalf("group %d is still latched after every operation returned", g)
		}
	}
	h.ReleaseAll()
	check := mustBegin(t, db)
	for p, want := range final {
		if want == nil {
			continue
		}
		got, err := check.ReadPage(PageID(p))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d does not hold its last committed value", p)
		}
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
}
