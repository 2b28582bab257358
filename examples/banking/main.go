// Banking: a concurrent OLTP transfer workload on the record-granularity
// engine — the workload class the paper's introduction motivates (large
// scale transaction processing needing rapid recovery).
//
// The transfers come from the workload plane's banking generator
// (internal/workload): eight interleaved teller streams are planned into
// a replayable trace whose funding prologue and transfer bodies carry
// literal balances, and the trace is replayed through rda/trace.  The
// generator keeps the book, so after the replay the on-disk balances
// must match it account for account; the system then crashes mid-flight
// with uncommitted riches in the buffer, and after recovery the books
// must still balance — the sum of all accounts is invariant, because
// every transfer is atomic.
package main

import (
	"fmt"
	"log"

	"repro/internal/workload"
	"repro/rda"
	"repro/rda/trace"
)

const (
	numAccounts    = 400
	initialBalance = 1000
	tellers        = 8
	transfers      = 1200
	maxTransfer    = 200
)

func main() {
	// Plan the whole workload first: a funding prologue plus `transfers`
	// teller transactions interleaved over 8 streams, as a trace.
	prof := workload.Profile{
		Mode:         trace.ModeRecord,
		Streams:      tellers,
		Transactions: transfers,
		AbortProb:    0.01, // the occasional teller changes their mind
		NumPages:     512,
		PageSize:     512,
		RecordSize:   16,
		Seed:         7,
	}
	bank, err := workload.NewBanking(prof, numAccounts, initialBalance, maxTransfer)
	if err != nil {
		log.Fatal(err)
	}
	t, err := workload.Generate(prof, bank)
	if err != nil {
		log.Fatal(err)
	}
	want := bank.ExpectedTotal()
	fmt.Printf("planned %d transfers over %d teller streams (%d accounts x %d, total %d)\n",
		transfers, tellers, numAccounts, initialBalance, want)

	cfg := rda.DefaultConfig()
	cfg.DataDisks = 8
	cfg.BufferFrames = 64
	cfg.Layout = rda.ParityStriping // Gray's layout, as OLTP systems preferred
	cfg.EOT = rda.NoForce
	cfg.RDA = true
	db, err := rda.Open(t.Config(cfg))
	if err != nil {
		log.Fatal(err)
	}

	res, err := trace.Replay(db, t, trace.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed %d ops: %d committed, %d aborted, %d transfers\n",
		res.OpsApplied, res.Committed, res.Aborted, res.Transfers)

	// Take an action-consistent checkpoint so crash recovery only has to
	// replay work from here on.
	if err := db.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("took an ACC checkpoint")

	// The generator's book is the oracle: every account, not just the sum.
	if got, err := bank.TotalIn(db); err != nil || got != want {
		log.Fatalf("books do not balance: %d != %d (%v)", got, want, err)
	}
	tx, err := db.Begin()
	if err != nil {
		log.Fatal(err)
	}
	for a, wantBal := range bank.Balances() {
		got, err := bank.BalanceIn(tx, a)
		if err != nil {
			log.Fatal(err)
		}
		if got != wantBal {
			log.Fatalf("account %d: balance %d, book says %d", a, got, wantBal)
		}
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("books balance before the crash (all accounts match the plan)")

	// Pull the plug mid-flight: leave uncommitted riches in the buffer and
	// crash.
	hang, err := db.Begin()
	if err != nil {
		log.Fatal(err)
	}
	payload := make([]byte, 16)
	payload[0] = 0x42 // not a plausible balance; must vanish on recovery
	if err := hang.WriteRecord(0, 0, payload); err != nil {
		log.Fatal(err)
	}
	db.Crash()
	rep, err := db.Recover()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crash: %d loser(s) rolled back (%d via twin parity, %d via log); %d image(s) redone over %d page(s), %d written\n",
		rep.Losers, rep.UndoneViaParity, rep.UndoneViaLog, rep.Redone, rep.RedonePages, rep.RedoneWrites)
	for _, p := range rep.Passes {
		fmt.Printf("  pass %-12s %5d array transfer(s)  %v\n", p.Name, p.Transfers, p.Duration)
	}

	if got, err := bank.TotalIn(db); err != nil || got != want {
		log.Fatalf("books do not balance after recovery: %d != %d (%v)", got, want, err)
	}
	fmt.Println("books balance after crash recovery")

	st := db.Stats()
	fmt.Printf("stats: %d committed, %d aborted, %d log records, %d disk transfers\n",
		st.TxCommitted, st.TxAborted, st.LogRecords, st.DiskReads+st.DiskWrites)
	if err := db.VerifyParity(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("parity invariant: OK")
}
