package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	gen "repro/internal/workload"
	"repro/rda"
	"repro/rda/trace"
)

const (
	// setupRounds is how many times a run sets up; setup_s is the median,
	// and the last round's engine is the one measured.
	setupRounds = 3
	// slices is the number of equal-transaction-count pieces steady is
	// cut into; tx_per_s is the median slice's rate.  A traced run traces
	// the odd slices only, so one run yields both rates.
	slices = 10
)

// env is one set-up engine with its drivers.
type env struct {
	w          workload
	db         *rda.DB
	sh         *shadow
	pool       [][]byte
	drivers    []*driver
	steadyTxns int // transactions per driver in the steady phase
	// degraded is true while a drive is down (the output check must then
	// read through transactions).
	degraded bool
	// checked and bad count the output checks made and failed.
	checked, bad int64
	// heapBase is the live heap just before rda.Open: the trace, the
	// shadow and the pools, which live_heap_mb leaves out.
	heapBase uint64
}

// liveHeap forces a collection and returns the bytes still allocated.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setup generates the traces from the seed, pre-expands the payload
// pool, opens the engine and replays the first 5 % of each trace to fill
// the buffer.
func setup(w workload, seed int64, scale float64) (*env, error) {
	e := &env{w: w, steadyTxns: scaled(w.steadyTxns, scale)}
	warm := scaled(e.steadyTxns/20, 1)
	src := gen.NewSource(seed)
	cfg := w.cfg
	perDriver := cfg.NumPages / w.drivers

	traces := make([]*trace.Trace, w.drivers)
	for i := range traces {
		base := gen.Profile{
			Mode: w.mode, Streams: w.streams, Transactions: warm + e.steadyTxns, Window: w.window,
			NumPages: perDriver, PageSize: cfg.PageSize, RecordSize: cfg.RecordSize,
			Seed: src.Stream(fmt.Sprintf("driver%d", i)),
		}
		prof, planner, err := gen.FromSpec(w.spec, base)
		if err != nil {
			return nil, err
		}
		if traces[i], err = gen.Generate(prof, planner); err != nil {
			return nil, err
		}
	}

	size, slots := cfg.PageSize, 1
	if w.mode == trace.ModeRecord {
		size = cfg.RecordSize
	}
	payload := uint64(src.Stream("payload"))
	e.pool = make([][]byte, poolSize)
	for k := range e.pool {
		e.pool[k] = trace.Payload(payload+uint64(k), size)
	}
	lat := make([][]time.Duration, w.drivers)
	for i := range lat {
		lat[i] = make([]time.Duration, 0, e.steadyTxns)
	}

	e.heapBase = liveHeap()
	db, err := rda.Open(cfg)
	if err != nil {
		return nil, err
	}
	e.db = db
	if w.mode == trace.ModeRecord {
		slots = db.RecordsPerPage()
	}
	e.sh = newShadow(cfg.NumPages, slots)
	for i, t := range traces {
		d := newDriver(db, t, uint32(i*perDriver), e.sh, e.pool)
		if err := d.replay(warm); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		d.lat = lat[i]
		e.drivers = append(e.drivers, d)
	}
	if w.deadDisk >= 0 {
		if err := db.FailDisk(w.deadDisk); err != nil {
			return nil, err
		}
		e.degraded = true
	}
	return e, nil
}

// steadyResult is what the steady phase measured.
type steadyResult struct {
	// rate and tracedRate are the median slice rates (commits/s, summed
	// over drivers) of the untraced and the traced slices.
	rate, tracedRate float64
	tracedWall       time.Duration // wall time of the traced slices, summed over drivers
	commits          int64
	payloadBytes     int64
	before, after    rda.Stats
	diskBefore       []int64
	diskAfter        []int64
	allocBytes       uint64
	gcCycles         uint32
	cpu              time.Duration
	liveHeap         uint64
	checkpoints      []time.Duration
	// lat holds the Commit() wall times of each slice, all drivers'.
	lat [slices][]time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// steady replays the timed part of every driver's trace, each driver on
// its own goroutine, in slices of equal transaction count.
func (e *env) steady(phase int64) (steadyResult, error) {
	var r steadyResult
	per := e.steadyTxns / slices
	if per < 1 {
		per = 1
	}

	// Harness-driven checkpoints: the engine's own CheckpointEvery would
	// run inside Commit, where its time cannot be told from the commit's.
	var lastCkpt int64
	if e.w.checkpointEvery > 0 {
		d := e.drivers[0] // checkpointing workloads have one driver
		lastCkpt = e.db.Stats().TotalTransfers()
		d.ckpt = func() error {
			now := e.db.Stats().TotalTransfers()
			if now-lastCkpt < e.w.checkpointEvery {
				return nil
			}
			t0 := time.Now()
			err := e.db.Checkpoint()
			t1 := time.Now()
			r.checkpoints = append(r.checkpoints, t1.Sub(t0))
			d.tr.checkpoint(phase, t0, t1)
			lastCkpt = e.db.Stats().TotalTransfers()
			return err
		}
		defer func() { d.ckpt = nil }()
	}

	var c0, p0 int64
	for _, d := range e.drivers {
		c0 += d.commits
		p0 += d.payloadBytes
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	r.before = e.db.Stats()
	r.diskBefore = e.db.DiskTransfers()
	cpu0 := cpuTime()

	type sliceTimes struct {
		rates  [slices]float64
		wall   [slices]time.Duration
		latEnd [slices]int // len(d.lat) at the end of the slice
		err    error
	}
	times := make([]sliceTimes, len(e.drivers))
	var wg sync.WaitGroup
	for i, d := range e.drivers {
		wg.Add(1)
		go func(d *driver, st *sliceTimes) {
			defer wg.Done()
			for s := 0; s < slices; s++ {
				d.tr.enable(s%2 == 1)
				n := d.commits
				t0 := time.Now()
				if st.err = d.replay(per); st.err != nil {
					return
				}
				st.wall[s] = time.Since(t0)
				st.rates[s] = float64(d.commits-n) / st.wall[s].Seconds()
				st.latEnd[s] = len(d.lat)
			}
			d.tr.enable(false)
		}(d, &times[i])
	}
	wg.Wait()

	r.cpu = cpuTime() - cpu0
	r.after = e.db.Stats()
	r.diskAfter = e.db.DiskTransfers()
	runtime.ReadMemStats(&ms1)
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.gcCycles = ms1.NumGC - ms0.NumGC
	r.liveHeap = liveHeap()

	for i, d := range e.drivers {
		if times[i].err != nil {
			return r, fmt.Errorf("steady: %w", times[i].err)
		}
		r.commits += d.commits
		r.payloadBytes += d.payloadBytes
		from := 0
		for s, end := range times[i].latEnd {
			r.lat[s] = append(r.lat[s], d.lat[from:end]...)
			from = end
		}
		d.lat = nil
		var plain, traced []float64
		for s, rate := range times[i].rates {
			if d.tr != nil && s%2 == 1 {
				traced = append(traced, rate)
				r.tracedWall += times[i].wall[s]
			} else {
				plain = append(plain, rate)
			}
		}
		// Drivers are closed-loop clients: the engine's rate is the sum of
		// theirs.
		r.rate += median(plain)
		if len(traced) > 0 {
			r.tracedRate += median(traced)
		}
	}
	r.commits -= c0
	r.payloadBytes -= p0
	return r, nil
}

// check runs the output check: the shadow image against the stored
// database, plus the engine's own invariant check.
func (e *env) check(invariant func() error) error {
	busy := map[int]bool{}
	for _, d := range e.drivers {
		d.busyCells(busy)
	}
	checked, bad, err := verifyShadow(e.db, e.sh, e.pool, busy, e.degraded)
	e.checked += checked + 1
	e.bad += bad
	if err != nil {
		return err
	}
	if ierr := invariant(); ierr != nil {
		fmt.Printf("# invariant check failed: %v\n", ierr)
		e.bad++
	}
	return nil
}

// timed is a series of timed intervals: one family (soft or hard) of
// restarts, or the rebuilds.
type timed struct {
	times     []time.Duration
	transfers int64
	reports   []*rda.RecoveryReport // restarts only: one per Recover(), several per interval when batched
}

// restarts runs cycles of: replay a burst, stop with streams open so
// they become losers, crash, time Recover, check.  One timed interval is
// the sum of batch consecutive cycles' Recover() times, so that a restart
// too short to time on its own still gives intervals of several
// milliseconds.  One goroutine drives it on every workload.
func (e *env) restarts(cycles, burst, batch int, hard bool, tr *tracer, phase int64) (timed, error) {
	var r timed
	d := e.drivers[0]
	name := "restart"
	if hard {
		name = "restart_hard"
	}
	// VerifyRecovered rejects the twin headers a P+Q restart leaves behind
	// while a drive is down (README.md, "Findings"), so a degraded restart
	// is held to the parity invariant and the durability check only.
	invariant := e.db.VerifyRecovered
	if e.degraded {
		invariant = e.db.VerifyParity
	}
	for c := 0; c < cycles; c++ {
		var interval time.Duration
		for b := 0; b < batch; b++ {
			if err := d.replay(burst); err != nil {
				return r, fmt.Errorf("%s burst: %w", name, err)
			}
			if hard {
				e.db.CrashHard()
			} else {
				e.db.Crash()
			}
			for _, dr := range e.drivers {
				dr.crashed()
			}
			before := e.db.Stats().TotalTransfers()
			t0 := time.Now()
			rep, err := e.db.Recover()
			t1 := time.Now()
			if err != nil {
				return r, fmt.Errorf("%s: %w", name, err)
			}
			interval += t1.Sub(t0)
			r.transfers += e.db.Stats().TotalTransfers() - before
			r.reports = append(r.reports, rep)
			tr.record(name, phase, t0, t1)
			if err := e.check(invariant); err != nil {
				return r, err
			}
		}
		r.times = append(r.times, interval)
	}
	return r, nil
}

// rebuilds runs cycles of: fail drive(s), time the repair, check.  The
// victims rotate over the array.
func (e *env) rebuilds(cycles int, tr *tracer, phase int64) (timed, error) {
	var r timed
	if e.w.deadDisk >= 0 {
		// The drive that was dead throughout comes back first, untimed.
		if err := e.db.RepairDisk(e.w.deadDisk); err != nil {
			return r, err
		}
		e.degraded = false
	}
	n := e.db.NumDisks()
	for c := 0; c < cycles; c++ {
		victims := []int{c % n}
		if e.w.rebuildDisks == 2 {
			victims = append(victims, (c+n/2)%n)
		}
		for _, v := range victims {
			if err := e.db.FailDisk(v); err != nil {
				return r, err
			}
		}
		before := e.db.Stats().TotalTransfers()
		var err error
		t0 := time.Now()
		if len(victims) == 1 {
			err = e.db.RepairDisk(victims[0])
		} else {
			var lost []uint32
			lost, err = e.db.RepairDisks(victims...)
			if err == nil && len(lost) > 0 {
				err = fmt.Errorf("two-drive repair lost %d group(s)", len(lost))
			}
		}
		t1 := time.Now()
		if err != nil {
			return r, fmt.Errorf("rebuild of %v: %w", victims, err)
		}
		r.times = append(r.times, t1.Sub(t0))
		r.transfers += e.db.Stats().TotalTransfers() - before
		tr.record("rebuild", phase, t0, t1)
		if err := e.check(e.db.VerifyParity); err != nil {
			return r, err
		}
	}
	return r, nil
}
