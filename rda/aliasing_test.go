package rda

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// scribble overwrites a buffer the caller owns — what any caller may do
// with its own slice the moment an engine call returns.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xEE
	}
}

// TestCallerBuffersNeverAliasEngineState pins the ownership rule at the
// API boundary now that frames, before-images and fetches reuse their
// page buffers: the slice Tx.ReadPage returns and the slice Tx.WritePage
// was given are the caller's alone.  The caller scribbles over both after
// each call; through eviction, no-log steals, commit, abort, a recycled
// before-image and a crash the engine must never show the scribble.
func TestCallerBuffersNeverAliasEngineState(t *testing.T) {
	for _, depth := range []int{0, 4} { // synchronous drives, and queued ones that hold write payloads
		t.Run(fmt.Sprintf("queue-depth-%d", depth), func(t *testing.T) {
			cfg := smallConfig(PageLogging, Force, true, DataStriping)
			cfg.QueueDepth = depth
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := loadAll(t, db)
			expect := func(when string, pages ...PageID) {
				t.Helper()
				tx := mustBegin(t, db)
				defer tx.Abort()
				for _, p := range pages {
					got, err := tx.ReadPage(p)
					if err != nil {
						t.Fatalf("%s: read page %d: %v", when, p, err)
					}
					if !bytes.Equal(got, want[p]) {
						t.Fatalf("%s: page %d read through the engine shows foreign bytes", when, p)
					}
					scribble(got)
					if onDisk, err := db.PeekPage(p); err != nil || bytes.Equal(onDisk, got) {
						t.Fatalf("%s: page %d on the platter shows the caller's scribble (%v)", when, p, err)
					}
				}
			}
			write := func(tx *Tx, p PageID, seed byte) []byte {
				t.Helper()
				buf := fillPage(db, seed)
				if err := tx.WritePage(p, buf); err != nil {
					t.Fatal(err)
				}
				kept := append([]byte(nil), buf...)
				scribble(buf)
				return kept
			}

			// Commit: page 5 is read, overwritten and then pushed out of
			// the six-frame buffer by the transaction's other writes, so
			// it is stolen without UNDO logging (its on-disk version is
			// snapshotted) and re-fetched into a recycled frame.
			tx := mustBegin(t, db)
			got, err := tx.ReadPage(5)
			if err != nil || !bytes.Equal(got, want[5]) {
				t.Fatalf("first read of page 5: %v", err)
			}
			scribble(got)
			new5 := write(tx, 5, 0x51)
			for p := PageID(8); p < 40; p += 4 {
				want[p] = write(tx, p, byte(p))
			}
			if again, err := tx.ReadPage(5); err != nil || !bytes.Equal(again, new5) {
				t.Fatalf("page 5 re-read inside its transaction after the steal: %v", err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			want[5] = new5
			if st := db.Stats(); st.Steals == 0 {
				t.Fatal("the scenario stole no frame")
			}
			expect("after commit", 5, 8, 12, 36)

			// Abort: the scribbled write buffer must not leak into the
			// restored page, and the before-images go back to the free list.
			loser := mustBegin(t, db)
			write(loser, 5, 0x52)
			write(loser, 6, 0x62)
			if err := loser.Abort(); err != nil {
				t.Fatal(err)
			}
			expect("after abort", 5, 6)
			if db.store.Pages.Len() == 0 {
				t.Fatal("the abort returned no before-image to the free list")
			}

			// Reuse: two live transactions draw their before-images from
			// that free list; each must get a page of its own holding its
			// page's contents, not the previous owner's.
			a, b := mustBegin(t, db), mustBegin(t, db)
			write(a, 7, 0x71)
			write(b, 13, 0xD1)
			write(a, 17, 0x72)
			if err := a.Abort(); err != nil {
				t.Fatal(err)
			}
			if err := b.Abort(); err != nil {
				t.Fatal(err)
			}
			expect("after aborts on recycled before-images", 7, 13, 17, 5, 6)

			// Two goroutines on disjoint groups, scribbling as they go: if
			// the engine (or a drive's queue) still read a caller's slice
			// after the call returned, the race detector reports it.
			var wg sync.WaitGroup
			results := make([]map[PageID][]byte, 2)
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					mine := make(map[PageID][]byte)
					for round := 0; round < 6; round++ {
						tx, err := db.Begin()
						if err != nil {
							t.Error(err)
							return
						}
						for k := 0; k < 4; k++ {
							p := PageID(w*24 + (round*4+k)%24)
							buf := fillPage(db, byte(16*w+round+k))
							if err := tx.WritePage(p, buf); err != nil {
								t.Error(err)
								return
							}
							mine[p] = append([]byte(nil), buf...)
							scribble(buf)
							if got, err := tx.ReadPage(p); err != nil || !bytes.Equal(got, mine[p]) {
								t.Errorf("worker %d: page %d read back wrong: %v", w, p, err)
								return
							} else {
								scribble(got)
							}
						}
						if err := tx.Commit(); err != nil {
							t.Error(err)
							return
						}
					}
					results[w] = mine
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			var all []PageID
			for _, mine := range results {
				for p, img := range mine {
					want[p] = img
				}
			}
			for p := range want {
				all = append(all, p)
			}
			expect("after the concurrent rounds", all...)

			// Crash with a loser in flight whose pages were stolen, then
			// restart: the recovered platter holds committed data only.
			inflight := mustBegin(t, db)
			for p := PageID(1); p < 40; p += 4 {
				write(inflight, p, 0x99)
			}
			db.Crash()
			if _, err := db.Recover(); err != nil {
				t.Fatal(err)
			}
			if err := db.VerifyRecovered(); err != nil {
				t.Fatal(err)
			}
			expect("after crash and recovery", all...)
			if err := db.VerifyParity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
