package main

import (
	"time"

	"repro/rda"
	"repro/rda/trace"
)

// workload is one fixed-count run shape.  Counts are at -scale 1
// (-seconds 10).  BENCHMARK.json says in a line why each workload
// exists; README.md says it at length, with the measurements the sizes
// come from.
type workload struct {
	name string
	cfg  rda.Config
	mode trace.Mode
	// spec is the internal/workload generator spec; streams is the number
	// of transaction streams interleaved in one trace.
	spec    string
	streams int
	// window is the generator's recency window (pages); the generator's
	// "hot" picks re-reference it.
	window int
	// drivers is the number of goroutines replaying during steady, each
	// with its own trace over its own contiguous page range.
	drivers int
	// steadyTxns is the transactions per driver in the timed steady
	// phase; 5 % more are replayed first, untimed, to fill the buffer.
	steadyTxns int
	// checkpointEvery is the transfer interval between the harness's
	// action-consistent checkpoints during steady (0 = none).
	checkpointEvery int64
	// deadDisk is fail-stopped at the end of set-up and stays dead
	// through steady and restart (-1 = none).
	deadDisk int
	// Restart phase: cycles of (replay burst, crash, timed Recover).  A
	// soft cycle repeats that softBatch times and sums the Recover() times
	// into one interval; restart_ms is the median interval ÷ softBatch.
	softCycles, softBurst, softBatch int
	hardCycles, hardBurst            int
	// Rebuild phase: cycles of (fail rebuildDisks drives, timed repair).
	rebuildCycles, rebuildDisks int
}

func baseConfig() rda.Config {
	c := rda.DefaultConfig() // N = 10, 2 KiB pages, RDA on, page logging, FORCE
	c.NumPages = 20000
	return c
}

// workloads lists the benchmark's four workloads in report order.
func workloads() []workload {
	oltp := baseConfig()
	oltp.BufferFrames = 64

	retr := baseConfig()
	retr.Logging = rda.RecordLogging
	retr.EOT = rda.NoForce
	retr.PackedLog = true
	retr.BufferFrames = 2000

	pq := baseConfig()
	pq.QParity = true
	pq.BufferFrames = 300

	pipe := baseConfig()
	pipe.NumPages = 480
	pipe.BufferFrames = 300
	pipe.QueueDepth = 8
	pipe.QueueWindow = 8
	pipe.GroupCommitWindow = time.Millisecond
	pipe.IODelay = time.Millisecond
	pipe.Workers = 2

	const update = "uniform:s=10,fu=0.8,pu=0.9,pb=0.01,hot=0.5"
	return []workload{
		{
			name: "oltp_force",
			cfg:  oltp, mode: trace.ModePage, spec: update, streams: 8, window: 64,
			drivers: 1, steadyTxns: 106000, deadDisk: -1,
			softCycles: 15, softBurst: 100, softBatch: 4, hardCycles: 15, hardBurst: 400,
			rebuildCycles: 40, rebuildDisks: 1,
		},
		{
			name: "retrieval_noforce",
			cfg:  retr, mode: trace.ModeRecord,
			spec: "zipfian:s=40,fu=0.1,pu=0.3,pb=0.01,hot=0.8,theta=0.9", streams: 6, window: 2000,
			drivers: 1, steadyTxns: 150000, checkpointEvery: 300000, deadDisk: -1,
			softCycles: 15, softBurst: 4000, softBatch: 1, hardCycles: 15, hardBurst: 1000,
			rebuildCycles: 40, rebuildDisks: 1,
		},
		{
			name: "degraded_pq",
			cfg:  pq, mode: trace.ModePage, spec: update, streams: 8, window: 300,
			drivers: 1, steadyTxns: 45000, deadDisk: 1,
			softCycles: 15, softBurst: 400, softBatch: 1, hardCycles: 15, hardBurst: 400,
			rebuildCycles: 25, rebuildDisks: 2,
		},
		{
			name: "pipelined_io",
			cfg:  pipe, mode: trace.ModePage,
			spec: "uniform:s=10,fu=1,pu=0.7,pb=0.01,hot=0.5", streams: 1, window: 150,
			drivers: 2, steadyTxns: 850, deadDisk: -1,
			softCycles: 5, softBurst: 12, softBatch: 1, hardCycles: 5, hardBurst: 12,
			rebuildCycles: 5, rebuildDisks: 1,
		},
	}
}

// scaled multiplies a count by the run's scale, never below 1.
func scaled(n int, scale float64) int {
	if s := int(float64(n)*scale + 0.5); s > 1 {
		return s
	}
	return 1
}
