package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/fault"
	"repro/internal/workload"
	"repro/rda"
	"repro/rda/trace"
)

// The P+Q bench: the same seeded workload measured over a single-parity
// array and a P+Q (RAID-6 style) array in the paper's cost unit — page
// transfers — so the small-write overhead of the second redundancy page
// is stated in the same currency as Figures 9-13.  A second section
// measures the rebuild cost of one- and two-drive losses: the workload
// runs with the death(s) injected mid-run, then the online rebuild is
// driven to completion and its transfer bill recorded.

// pqRun is one measured configuration of the steady-state comparison.
type pqRun struct {
	Config    string `json:"config"`
	Committed int64  `json:"committed"`
	// HitRate is the measured buffer hit rate (the generator's hot knob
	// is 0.9).
	HitRate      float64 `json:"hit_rate"`
	DiskReads    int64   `json:"disk_reads"`
	DiskWrites   int64   `json:"disk_writes"`
	LogTransfers int64   `json:"log_transfers"`
	// TransfersPerCommit is the total transfer bill (array + log) per
	// committed transaction.
	TransfersPerCommit float64 `json:"transfers_per_commit"`
	// WriteOverheadPct is the extra array writes per commit relative to
	// the single-parity run (0 for the baseline itself).
	WriteOverheadPct float64 `json:"write_overhead_pct"`
}

// pqRebuild is one measured rebuild: how many transfers restoring full
// redundancy cost after the given number of drive deaths.
type pqRebuild struct {
	Config         string `json:"config"`
	DeadDisks      int    `json:"dead_disks"`
	GroupsRestored int64  `json:"groups_restored"`
	Transfers      int64  `json:"transfers"`
	Steps          int    `json:"throttled_steps"`
}

// pqOutput is the BENCH_pq.json document.
type pqOutput struct {
	Bench    string `json:"bench"`
	Geometry struct {
		DataDisks int    `json:"data_disks"`
		NumPages  int    `json:"num_pages"`
		PageSize  int    `json:"page_size"`
		Logging   string `json:"logging"`
		EOT       string `json:"eot"`
		Budget    int64  `json:"transfer_budget"`
	} `json:"geometry"`
	Runs     []pqRun     `json:"runs"`
	Rebuilds []pqRebuild `json:"rebuilds"`
}

// pqConfig is the bench's fixed engine configuration; only QParity
// varies between runs.
func pqConfig(qparity bool) rda.Config {
	cfg := rda.DefaultConfig()
	cfg.Logging = rda.PageLogging
	cfg.EOT = rda.Force
	cfg.RDA = true
	cfg.QParity = qparity
	cfg.PageSize = 256
	return cfg
}

// benchQParity measures the P+Q overhead and the one- vs two-drive
// rebuild cost, prints both tables and writes the JSON artifact.
func benchQParity(budget, seed int64, outPath string) error {
	fmt.Println("== P+Q overhead: single parity vs two redundancy pages (page logging FORCE/TOC, RDA, C=0.9) ==")
	src := workload.NewSource(seed)
	workloadSeed, faultSeed := src.Stream("workload"), src.Stream("fault")

	out := pqOutput{Bench: "P+Q small-write overhead and two-drive rebuild cost"}
	g := pqConfig(false)
	out.Geometry.DataDisks = g.DataDisks
	out.Geometry.NumPages = g.NumPages
	out.Geometry.PageSize = g.PageSize
	out.Geometry.Logging = "page"
	out.Geometry.EOT = "force"
	out.Geometry.Budget = budget

	run := func(qparity bool, sched fault.Schedule) (trace.Result, *rda.DB, error) {
		db, err := rda.Open(pqConfig(qparity))
		if err != nil {
			return trace.Result{}, nil, err
		}
		if sched != nil {
			plane := fault.NewPlane(sched)
			plane.SetSeed(faultSeed)
			db.SetInjector(plane)
		}
		res, err := workload.Interval(db, highUpdate+",hot=0.9", workloadSeed, trace.Options{MaxTransfers: budget})
		return res, db, err
	}

	fmt.Printf("%16s %10s %6s %12s %12s %14s %18s %10s\n",
		"config", "committed", "hit", "array reads", "array writes", "log transfers", "transfers/commit", "overhead")
	var baseWrites float64
	for _, c := range []struct {
		name    string
		qparity bool
	}{{"single-parity", false}, {"p+q", true}} {
		res, _, err := run(c.qparity, nil)
		if err != nil {
			return fmt.Errorf("%s run: %w", c.name, err)
		}
		st := res.Stats
		r := pqRun{
			Config:       c.name,
			Committed:    res.Committed,
			HitRate:      hitRate(st),
			DiskReads:    st.DiskReads,
			DiskWrites:   st.DiskWrites,
			LogTransfers: st.LogWriteTransfers + st.LogReadTransfers,
		}
		if res.Committed > 0 {
			r.TransfersPerCommit = float64(st.TotalTransfers()) / float64(res.Committed)
			wpc := float64(st.DiskWrites) / float64(res.Committed)
			if baseWrites == 0 {
				baseWrites = wpc
			} else if baseWrites > 0 {
				r.WriteOverheadPct = 100 * (wpc - baseWrites) / baseWrites
			}
		}
		fmt.Printf("%16s %10d %6.3f %12d %12d %14d %18.1f %9.1f%%\n",
			r.Config, r.Committed, r.HitRate, r.DiskReads, r.DiskWrites, r.LogTransfers,
			r.TransfersPerCommit, r.WriteOverheadPct)
		out.Runs = append(out.Runs, r)
	}

	fmt.Println("-- rebuild cost: drive death(s) mid-run, online rebuild driven to completion --")
	fmt.Printf("%16s %10s %16s %12s %10s\n", "config", "dead", "groups restored", "transfers", "steps")
	// The schedule counts block writes, not transfers; array writes run
	// well under a quarter of the transfer budget, so an eighth of it
	// lands the death(s) mid-workload with degraded traffic to follow.
	at := budget / 8
	for _, c := range []struct {
		name    string
		qparity bool
		dead    int
	}{{"single-parity", false, 1}, {"p+q", true, 1}, {"p+q", true, 2}} {
		sched := fault.Schedule{fault.FailDisk(0, at)}
		if c.dead == 2 {
			sched = append(sched, fault.FailDisk(1, at))
		}
		_, db, err := run(c.qparity, sched)
		if err != nil {
			return fmt.Errorf("%s rebuild run (%d dead): %w", c.name, c.dead, err)
		}
		pre := db.Stats()
		steps := 0
		for {
			done, err := db.RebuildStep(0)
			if err != nil {
				return fmt.Errorf("%s rebuild (%d dead): %w", c.name, c.dead, err)
			}
			if done {
				break
			}
			steps++
		}
		post := db.Stats()
		if err := db.VerifyParity(); err != nil {
			return fmt.Errorf("%s parity after rebuild (%d dead): %w", c.name, c.dead, err)
		}
		rb := pqRebuild{
			Config:         c.name,
			DeadDisks:      c.dead,
			GroupsRestored: post.RebuiltGroups - pre.RebuiltGroups,
			Transfers:      post.DiskReads + post.DiskWrites - pre.DiskReads - pre.DiskWrites,
			Steps:          steps,
		}
		if rb.GroupsRestored == 0 {
			return fmt.Errorf("%s rebuild (%d dead): death at write %d was never observed — raise -budget", c.name, c.dead, at)
		}
		fmt.Printf("%16s %10d %16d %12d %10d\n",
			rb.Config, rb.DeadDisks, rb.GroupsRestored, rb.Transfers, rb.Steps)
		out.Rebuilds = append(out.Rebuilds, rb)
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("   wrote %s\n\n", outPath)
	return nil
}
