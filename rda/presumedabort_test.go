package rda

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/page"
	"repro/internal/wal"
)

// groupPage returns the first page of parity group g.
func groupPage(db *DB, g int) PageID {
	return PageID(db.arr.GroupPages(page.GroupID(g))[0])
}

// stealOut writes the first page of groups 1 and 2 on tx, so that a
// two-frame pool steals tx's earlier pages to the platter.
func stealOut(t *testing.T, db *DB, tx *Tx, seed byte) {
	t.Helper()
	writePages(t, db, tx, []page.PageID{db.arr.GroupPages(1)[0], db.arr.GroupPages(2)[0]}, seed)
}

// readPage reads page p in a transaction of its own.
func readPage(t *testing.T, db *DB, p PageID) []byte {
	t.Helper()
	tx := mustBegin(t, db)
	got, err := tx.ReadPage(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return got
}

// logHasEOT reports whether the log still holds transaction id's EOT.
func logHasEOT(t *testing.T, db *DB, id uint64) bool {
	t.Helper()
	found := false
	if err := db.log.Scan(1, func(r wal.Record) bool {
		found = found || r.Type == wal.TypeEOT && uint64(r.Txn) == id
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return found
}

// TestUnloggedStealIsUndoneAfterCrash: a transaction whose page a healthy
// array stole without any log record — no BOT, no before-image, no force
// from its Begin on — is a loser at the next restart because its id is at
// or above the durable floor, and its steal is undone from the twin
// parity.  The restart counts it among the losers though the log never
// saw it, and decides it by the floor it anchors: a second restart finds
// no loser.
func TestUnloggedStealIsUndoneAfterCrash(t *testing.T) {
	for _, eot := range []EOTDiscipline{Force, NoForce} {
		for _, layout := range []Layout{DataStriping, ParityStriping} {
			cfg := smallConfig(PageLogging, eot, true, layout)
			cfg.BufferFrames = 2
			t.Run(cfgName(cfg), func(t *testing.T) {
				db, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				p := groupPage(db, 0)
				base := fillPage(db, 0x21)
				setup := mustBegin(t, db)
				if err := setup.WritePage(p, base); err != nil {
					t.Fatal(err)
				}
				if err := setup.Commit(); err != nil {
					t.Fatal(err)
				}
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}

				before := db.log.Stats()
				loser := mustBegin(t, db)
				if err := loser.WritePage(p, fillPage(db, 0x9C)); err != nil {
					t.Fatal(err)
				}
				stealOut(t, db, loser, 0x40)
				info, err := db.InspectGroup(p)
				if err != nil {
					t.Fatal(err)
				}
				if !info.Dirty || info.DirtyTxn != loser.ID() {
					t.Fatalf("page %d was not stolen without logging by txn %d: %+v", p, loser.ID(), info)
				}
				if after := db.log.Stats(); after != before {
					t.Fatalf("the loser touched the log: %+v, then %+v", before, after)
				}

				db.Crash()
				n := db.log.Len()
				rep, err := db.Recover()
				if err != nil {
					t.Fatal(err)
				}
				if rep.Losers != 1 || rep.UndoneViaParity != 1 {
					t.Fatalf("restart: %d loser(s), %d undone via parity; want 1 and 1", rep.Losers, rep.UndoneViaParity)
				}
				// The loser's abort is the floor the restart anchors on
				// the log; only ¬FORCE appends a closing checkpoint.
				if f := db.log.Floor(); f <= page.TxID(loser.ID()) {
					t.Fatalf("anchored floor %d does not pass the loser %d", f, loser.ID())
				}
				want := 0
				if eot == NoForce {
					want = 1
				}
				if got := db.log.Len() - n; got != want {
					t.Fatalf("the restart appended %d record(s), want %d", got, want)
				}
				if got := readPage(t, db, p); !bytes.Equal(got, base) {
					t.Fatalf("page %d kept the loser's steal", p)
				}
				if err := db.VerifyParity(); err != nil {
					t.Fatal(err)
				}
				db.Crash()
				if rep, err := db.Recover(); err != nil || rep.Losers != 0 {
					t.Fatalf("second restart: %v, %+v; want no loser", err, rep)
				}
			})
		}
	}
}

// TestFloorHoldsTruncationForAnOlderTransaction: a transaction that began
// before a younger one's commit, and modifies only after it, keeps the
// durable floor at its own id, so truncation keeps the younger one's EOT
// until the floor passes it.  A crash meanwhile keeps the younger one's
// committed working twin and undoes the older one's steal; once the older
// one is gone the EOT goes too, and the twin still counts as committed.
func TestFloorHoldsTruncationForAnOlderTransaction(t *testing.T) {
	for _, crash := range []bool{false, true} {
		for _, layout := range []Layout{DataStriping, ParityStriping} {
			cfg := smallConfig(PageLogging, Force, true, layout)
			cfg.BufferFrames = 2
			t.Run(fmt.Sprintf("%s/crash=%v", cfgName(cfg), crash), func(t *testing.T) {
				db, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				p, q := groupPage(db, 0), groupPage(db, 3)
				old := readPage(t, db, q)

				low := mustBegin(t, db)
				high := mustBegin(t, db)
				want := fillPage(db, 0x5D)
				if err := high.WritePage(p, want); err != nil {
					t.Fatal(err)
				}
				if err := high.Commit(); err != nil {
					t.Fatal(err)
				}
				if info, err := db.InspectGroup(p); err != nil || info.TwinStates[info.CurrentTwin] != "working" {
					t.Fatalf("group of page %d: %+v, %v; want its current twin still working", p, info, err)
				}
				if err := low.WritePage(q, fillPage(db, 0x77)); err != nil {
					t.Fatal(err)
				}
				stealOut(t, db, low, 0x30)
				if info, err := db.InspectGroup(q); err != nil || !info.Dirty || info.DirtyTxn != low.ID() {
					t.Fatalf("page %d was not stolen by txn %d: %+v, %v", q, low.ID(), info, err)
				}
				if !logHasEOT(t, db, high.ID()) {
					t.Fatalf("txn %d's EOT was truncated while txn %d, below it, was undecided", high.ID(), low.ID())
				}

				if crash {
					db.Crash()
					rep, err := db.Recover()
					if err != nil {
						t.Fatal(err)
					}
					if rep.Losers != 1 {
						t.Fatalf("restart: %d loser(s), want 1", rep.Losers)
					}
					if got := readPage(t, db, q); !bytes.Equal(got, old) {
						t.Fatalf("page %d kept txn %d's steal", q, low.ID())
					}
				} else if err := low.Abort(); err != nil {
					t.Fatal(err)
				}
				// The floor passes the younger transaction at the next
				// record that carries one, an update's EOT, and truncation
				// takes its EOT.
				if got := readPage(t, db, p); !bytes.Equal(got, want) {
					t.Fatalf("page %d lost txn %d's commit", p, high.ID())
				}
				next := mustBegin(t, db)
				if err := next.WritePage(groupPage(db, 4), fillPage(db, 0x11)); err != nil {
					t.Fatal(err)
				}
				if err := next.Commit(); err != nil {
					t.Fatal(err)
				}
				if logHasEOT(t, db, high.ID()) {
					t.Fatalf("txn %d's EOT outlived the floor passing it", high.ID())
				}
				db.Crash()
				if _, err := db.Recover(); err != nil {
					t.Fatal(err)
				}
				if got := readPage(t, db, p); !bytes.Equal(got, want) {
					t.Fatalf("page %d lost txn %d's commit once its EOT was truncated", p, high.ID())
				}
				if err := db.VerifyParity(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestRestartRaisesNextIDAboveLogAndFloor: after a restart every new
// transaction id lies above every id the log names, above the durable
// floor, and above the never-logged loser the restart undid.
func TestRestartRaisesNextIDAboveLogAndFloor(t *testing.T) {
	cfg := smallConfig(PageLogging, Force, true, DataStriping)
	cfg.BufferFrames = 2
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustBegin(t, db) // open across the crash: it holds the floor, so the log keeps the EOTs
	for i := 0; i < 3; i++ {
		tx := mustBegin(t, db)
		if err := tx.WritePage(groupPage(db, i), fillPage(db, byte(i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	loser := mustBegin(t, db)
	if err := loser.WritePage(groupPage(db, 5), fillPage(db, 0x55)); err != nil {
		t.Fatal(err)
	}
	stealOut(t, db, loser, 0x60)
	db.Crash()
	rep, err := db.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Losers != 1 {
		t.Fatalf("restart: %d loser(s), want the never-logged one", rep.Losers)
	}
	top, floor := page.TxID(loser.ID()), db.log.Floor()
	if err := db.log.Scan(1, func(r wal.Record) bool {
		top = max(top, r.Txn)
		if f, ok := r.Floor(); ok {
			floor = max(floor, f)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	next := mustBegin(t, db)
	if id := page.TxID(next.ID()); id <= top || id < floor {
		t.Fatalf("first id after the restart = %d; the log and the losers name %d, the floor is %d", id, top, floor)
	}
}

// TestTruncationWaitsForTheFloorsForce: a group commit's EOT is appended
// unforced, and truncation does not act on the floor it carries — neither
// drops records below it nor anchors it — until a force covers it: a crash
// before that force loses the EOT, and the floor with it.
func TestTruncationWaitsForTheFloorsForce(t *testing.T) {
	cfg := smallConfig(PageLogging, NoForce, true, DataStriping)
	cfg.GroupCommitWindow = time.Hour // nothing forces but the test
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, db)
	if err := tx.WritePage(0, fillPage(db, 0x3A)); err != nil {
		t.Fatal(err)
	}
	id := page.TxID(tx.ID())
	// Commit's latched section alone: the batched force has not run.
	if err := db.commitAttempt(tx); err != nil {
		t.Fatal(err)
	}
	if db.log.ForcedLSN() >= tx.st.eotLSN {
		t.Fatal("the EOT was forced inline")
	}
	if f := db.log.Floor(); f != id {
		t.Fatalf("anchored floor %d before the EOT's force, want the checkpoint's %d", f, id)
	}
	db.log.Force(tx.st.eotLSN)
	db.mu.Lock()
	db.truncateLogLocked()
	db.mu.Unlock()
	if f := db.log.Floor(); f != id+1 {
		t.Fatalf("anchored floor %d after the EOT's force, want its %d", f, id+1)
	}
}
