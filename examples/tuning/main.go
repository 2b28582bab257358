// Tuning: use the paper's analytical model (Section 5) to choose a
// recovery configuration for a workload, then sanity-check the winner on
// the live engine.
//
// This walks exactly the decision the paper's conclusions describe: for
// page logging, FORCE/TOC + RDA recovery wins; for record logging,
// ¬FORCE/ACC + RDA wins, with the model also yielding the optimal
// checkpoint interval.
package main

import (
	"fmt"
	"log"

	"repro/internal/workload"
	"repro/rda"
	"repro/rda/model"
	"repro/rda/trace"
)

func main() {
	env := model.HighUpdate().WithCommunality(0.8)
	fmt.Println("workload: the paper's high-update environment at C=0.8")
	fmt.Printf("%-28s %-6s %14s %16s\n", "algorithm", "RDA", "throughput", "ckpt interval")

	type choice struct {
		algo model.Algorithm
		rda  bool
		res  model.Result
	}
	var best choice
	for _, algo := range []model.Algorithm{
		model.AlgoPageForceTOC, model.AlgoPageNoForceACC,
		model.AlgoRecordForceTOC, model.AlgoRecordNoForceACC,
	} {
		for _, useRDA := range []bool{false, true} {
			res := model.Evaluate(algo, env, useRDA)
			interval := "-"
			if res.Interval > 0 {
				interval = fmt.Sprintf("%14.0f", res.Interval)
			}
			fmt.Printf("%-28s %-6v %14.0f %16s\n", algo, useRDA, res.Throughput, interval)
			if res.Throughput > best.res.Throughput {
				best = choice{algo, useRDA, res}
			}
		}
	}
	fmt.Printf("\nmodel's pick: %s with RDA=%v (%.0f transactions/interval)\n",
		best.algo, best.rda, best.res.Throughput)

	// Sanity check the page-logging half of the ranking on the live
	// engine: FORCE/TOC with RDA must beat FORCE/TOC without.
	fmt.Println("\nlive engine check (page logging, FORCE/TOC):")
	for _, useRDA := range []bool{false, true} {
		cfg := rda.DefaultConfig()
		cfg.PageSize = 256
		cfg.EOT = rda.Force
		cfg.Logging = rda.PageLogging
		cfg.RDA = useRDA
		db, err := rda.Open(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := workload.Interval(db, "uniform:streams=6,s=10,fu=0.8,pu=0.9,pb=0.01,hot=0.8", 3,
			trace.Options{MaxTransfers: 120000, CrashAtEnd: true})
		if err != nil {
			log.Fatal(err)
		}
		st := res.Stats
		fmt.Printf("  RDA=%-5v committed %5d transactions in the interval (%d log transfers, buffer hit rate %.2f)\n",
			useRDA, res.Committed, st.LogWriteTransfers, float64(st.BufferHits)/float64(st.BufferHits+st.BufferMisses))
	}
}
