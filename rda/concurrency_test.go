package rda

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestDemotionSharedDirtyPage drives the engine through the subtle
// record-locking case DESIGN.md documents: transaction A's page is
// stolen without UNDO logging (dirty group), then transaction B modifies
// a DIFFERENT record of the SAME page.  The engine must demote A's steal
// to a logged one; afterwards A can abort (losing only its records) and
// B can commit, on the same page.
func TestDemotionSharedDirtyPage(t *testing.T) {
	cfg := smallConfig(RecordLogging, Force, true, DataStriping)
	cfg.BufferFrames = 2 // steal immediately
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline.
	setup := mustBegin(t, db)
	if err := setup.WriteRecord(0, 0, []byte{0x0A}); err != nil {
		t.Fatal(err)
	}
	if err := setup.WriteRecord(0, 1, []byte{0x0B}); err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	// A modifies slot 0 and its page gets stolen without UNDO logging.
	a := mustBegin(t, db)
	if err := a.WriteRecord(0, 0, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	// Force the steal by touching other pages.
	if _, err := a.ReadRecord(4, 0); err != nil && !isEmptySlot(err) {
		t.Fatal(err)
	}
	if _, err := a.ReadRecord(8, 0); err != nil && !isEmptySlot(err) {
		t.Fatal(err)
	}
	info, err := db.InspectGroup(0)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Dirty || info.DirtyPage != 0 {
		t.Fatalf("setup failed: group not dirty via page 0 (%+v)", info)
	}
	logBefore := db.Stats().LogRecords

	// B writes slot 1 of the same page: demotion must fire.
	b := mustBegin(t, db)
	if err := b.WriteRecord(0, 1, []byte{0xBB}); err != nil {
		t.Fatal(err)
	}
	info, err = db.InspectGroup(0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Dirty {
		t.Fatalf("group must be clean after demotion (%+v)", info)
	}
	if db.Stats().LogRecords <= logBefore {
		t.Fatalf("demotion must log A's before-images")
	}

	// A aborts; B commits.
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	check := mustBegin(t, db)
	got0, err := check.ReadRecord(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got1, err := check.ReadRecord(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got0[0] != 0x0A {
		t.Fatalf("A's record = %#x, want the pre-A value 0x0A", got0[0])
	}
	if got1[0] != 0xBB {
		t.Fatalf("B's record = %#x, want B's committed 0xBB", got1[0])
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

// TestDemotionThenCrash is the same scenario interrupted by a crash
// instead of clean EOTs: both A and B are losers; recovery must restore
// both records from the log (the demoted steal forbids the whole-page
// parity undo).
func TestDemotionThenCrash(t *testing.T) {
	cfg := smallConfig(RecordLogging, Force, true, DataStriping)
	cfg.BufferFrames = 2
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setup := mustBegin(t, db)
	if err := setup.WriteRecord(0, 0, []byte{0x0A}); err != nil {
		t.Fatal(err)
	}
	if err := setup.WriteRecord(0, 1, []byte{0x0B}); err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	a := mustBegin(t, db)
	if err := a.WriteRecord(0, 0, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadRecord(4, 0); err != nil && !isEmptySlot(err) {
		t.Fatal(err)
	}
	if _, err := a.ReadRecord(8, 0); err != nil && !isEmptySlot(err) {
		t.Fatal(err)
	}
	b := mustBegin(t, db)
	if err := b.WriteRecord(0, 1, []byte{0xBB}); err != nil {
		t.Fatal(err)
	}
	// Push B's version to disk too, then crash.
	if _, err := b.ReadRecord(12, 0); err != nil && !isEmptySlot(err) {
		t.Fatal(err)
	}
	if _, err := b.ReadRecord(16, 0); err != nil && !isEmptySlot(err) {
		t.Fatal(err)
	}
	db.Crash()
	rep, err := db.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Losers != 2 {
		t.Fatalf("losers = %d, want 2", rep.Losers)
	}
	check := mustBegin(t, db)
	got0, err := check.ReadRecord(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got1, err := check.ReadRecord(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got0[0] != 0x0A || got1[0] != 0x0B {
		t.Fatalf("records = %#x/%#x, want 0x0A/0x0B", got0[0], got1[0])
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentGoroutineStress runs many goroutines of page
// transactions with retries, then verifies the parity invariant and that
// every page holds one of the values some committed transaction wrote.
func TestConcurrentGoroutineStress(t *testing.T) {
	cfg := smallConfig(PageLogging, NoForce, true, DataStriping)
	cfg.NumPages = 64
	cfg.BufferFrames = 8
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers, txnsEach = 8, 40
	var mu sync.Mutex
	committed := make(map[PageID]map[byte]bool) // page -> set of committed seeds
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < txnsEach; i++ {
				tx, err := db.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				seed := byte(w*txnsEach + i)
				pages := []PageID{PageID(r.Intn(64)), PageID(r.Intn(64))}
				ok := true
				for _, p := range pages {
					if err := tx.WritePage(p, fillPage(db, seed)); err != nil {
						if errors.Is(err, ErrDeadlock) {
							ok = false
							break
						}
						t.Error(err)
						return
					}
				}
				if !ok {
					continue // victim: already aborted
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				for _, p := range pages {
					if committed[p] == nil {
						committed[p] = make(map[byte]bool)
					}
					committed[p][seed] = true
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if err := db.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	// Every written page must hold one of its committed values.
	check := mustBegin(t, db)
	for p, seeds := range committed {
		got, err := check.ReadPage(p)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for seed := range seeds {
			if bytes.Equal(got, fillPage(db, seed)) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("page %d holds a value no committed transaction wrote", p)
		}
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestInspectGroupAndDumpLog(t *testing.T) {
	// ¬FORCE, so the commit logs its after-image: a FORCE commit to a
	// group that keeps its redundancy logs none.
	db, err := Open(smallConfig(PageLogging, NoForce, true, DataStriping))
	if err != nil {
		t.Fatal(err)
	}
	// An older active transaction pins the log (its BOT bounds
	// truncation), so the committed transaction's records stay visible.
	pin := mustBegin(t, db)
	if err := pin.WritePage(20, fillPage(db, 9)); err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, db)
	if err := tx.WritePage(0, fillPage(db, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	info, err := db.InspectGroup(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Pages) != db.Config().DataDisks {
		t.Fatalf("group pages = %v", info.Pages)
	}
	if len(info.TwinStates) != 2 {
		t.Fatalf("twin states = %v, want two twins", info.TwinStates)
	}
	if info.Dirty {
		t.Fatalf("group must be clean after commit")
	}
	if _, err := db.InspectGroup(PageID(db.NumPages())); !errors.Is(err, ErrBadPage) {
		t.Fatalf("err = %v, want ErrBadPage", err)
	}

	var lines []string
	if err := db.DumpLog(func(l string) bool {
		lines = append(lines, l)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"BOT", "EOT", "AFTER"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("log dump missing %q:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "BEFORE") {
		t.Fatalf("RDA run must not log before-images:\n%s", joined)
	}
	// Early stop works.
	count := 0
	if err := db.DumpLog(func(string) bool { count++; return false }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("early stop visited %d lines", count)
	}
}
