package workload

import (
	"strings"
	"testing"

	"repro/rda"
	"repro/rda/trace"
)

// intervalConfig is a small engine for the interval tests: five data
// disks, 500 pages of 128 bytes and a 40-frame pool.
func intervalConfig(useRDA bool) rda.Config {
	return rda.Config{
		DataDisks:    5,
		NumPages:     500,
		PageSize:     128,
		BufferFrames: 40,
		Layout:       rda.DataStriping,
		Logging:      rda.PageLogging,
		EOT:          rda.Force,
		RDA:          useRDA,
		RecordSize:   32,
		LogPageSize:  512,
		LogWriteCost: 4,
	}
}

func runInterval(t *testing.T, cfg rda.Config, spec string, opts trace.Options) (trace.Result, *rda.DB) {
	t.Helper()
	db, err := rda.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Interval(db, spec, 11, opts)
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	return res, db
}

// TestParityRotationBalancesDisks checks the point of rotated parity
// (Section 3.1: "the parity is rotated over the set of disks in order to
// avoid contention on the parity disk"): under a random update workload
// no disk serves wildly more transfers than the average, for both array
// organizations.
func TestParityRotationBalancesDisks(t *testing.T) {
	for _, layout := range []rda.Layout{rda.DataStriping, rda.ParityStriping} {
		cfg := intervalConfig(true)
		cfg.BufferFrames = 30
		cfg.Layout = layout
		_, db := runInterval(t, cfg, "uniform:streams=4,s=6,fu=1,pu=1,pb=0,hot=0.1", trace.Options{MaxTransfers: 30000})
		per := db.DiskTransfers()
		var total, max int64
		for _, x := range per {
			total += x
			if x > max {
				max = x
			}
		}
		mean := float64(total) / float64(len(per))
		if float64(max) > 1.6*mean {
			t.Fatalf("%v: hottest disk served %d transfers vs mean %.0f — parity not balanced: %v",
				layout, max, mean, per)
		}
	}
}

// TestCommunalityRealized checks that the hot knob, with a window the
// size of the buffer pool, really controls the buffer hit rate.
func TestCommunalityRealized(t *testing.T) {
	hit := func(hot string) float64 {
		res, _ := runInterval(t, intervalConfig(true), "uniform:streams=4,s=6,fu=0.8,pu=0.9,pb=0.02,hot="+hot, trace.Options{MaxTransfers: 15000})
		st := res.Stats
		return float64(st.BufferHits) / float64(st.BufferHits+st.BufferMisses)
	}
	low, high := hit("0.05"), hit("0.9")
	if high < low+0.3 {
		t.Fatalf("hit rates: hot=0.05 → %.2f, hot=0.9 → %.2f; communality not realized", low, high)
	}
}

// TestRDAReducesLogTrafficUnderLoad is the paper's headline effect on
// the live engine: with page logging and FORCE/TOC, enabling RDA must
// reduce log transfers and commit more transactions within one budget.
func TestRDAReducesLogTrafficUnderLoad(t *testing.T) {
	const spec = "uniform:streams=4,s=6,fu=0.8,pu=0.9,pb=0,hot=0.5" // no aborts: isolate logging
	with, _ := runInterval(t, intervalConfig(true), spec, trace.Options{MaxTransfers: 30000})
	without, _ := runInterval(t, intervalConfig(false), spec, trace.Options{MaxTransfers: 30000})
	if with.Stats.LogWriteTransfers >= without.Stats.LogWriteTransfers {
		t.Fatalf("RDA log transfers %d, baseline %d: RDA must log less",
			with.Stats.LogWriteTransfers, without.Stats.LogWriteTransfers)
	}
	if with.Committed <= without.Committed {
		t.Fatalf("RDA committed %d, baseline %d: RDA must commit more within the budget",
			with.Committed, without.Committed)
	}
}

// TestBadArgs: Interval rejects an unusable workload and a zero budget
// before it replays anything.
func TestBadArgs(t *testing.T) {
	db, err := rda.Open(intervalConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"", "uniform:fu=1.5", "uniform:s=-3"} {
		if _, err := Interval(db, spec, 11, trace.Options{MaxTransfers: 100}); err == nil {
			t.Errorf("Interval(%q): bad workload must be rejected", spec)
		}
	}
	if _, err := Interval(db, "uniform", 11, trace.Options{}); err == nil {
		t.Errorf("zero budget must be rejected")
	}
}

// TestIntervalCutsAtTheBudget: MaxTransfers is the interval T.  A trace
// longer than T is cut once T transfers are spent, with parity intact; one
// that runs out first is an error, not a shorter interval.
func TestIntervalCutsAtTheBudget(t *testing.T) {
	const T = 20000
	for _, logging := range []rda.LoggingMode{rda.PageLogging, rda.RecordLogging} {
		cfg := intervalConfig(true)
		cfg.Logging = logging
		db, err := rda.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base := Profile{Transactions: T / 2, Window: cfg.BufferFrames, NumPages: db.NumPages(), PageSize: cfg.PageSize, Seed: 11}
		if logging == rda.RecordLogging {
			base.Mode, base.RecordSize = trace.ModeRecord, cfg.RecordSize
		}
		prof, pl, err := FromSpec("uniform:streams=4,s=6,fu=0.8,pu=0.9,pb=0.02,hot=0.5", base)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Generate(prof, pl)
		if err != nil {
			t.Fatal(err)
		}
		res, err := trace.Replay(db, tr, trace.Options{MaxTransfers: T})
		if err != nil {
			t.Fatalf("%v: %v", logging, err)
		}
		if res.Transfers < T || res.OpsApplied >= len(tr.Ops) || res.Committed == 0 {
			t.Fatalf("%v: %d transfers, %d of %d ops, %d committed: want a cut at %d transfers",
				logging, res.Transfers, res.OpsApplied, len(tr.Ops), res.Committed, T)
		}
		if err := db.VerifyParity(); err != nil {
			t.Fatalf("%v: %v", logging, err)
		}
	}

	db, err := rda.Open(intervalConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Interval(db, "uniform:streams=4,s=6,txns=20", 11, trace.Options{MaxTransfers: T})
	if err == nil || !strings.Contains(err.Error(), "ran out") {
		t.Fatalf("a 20-transaction trace against a %d-transfer interval: err %v, want the trace to run out", T, err)
	}
}
