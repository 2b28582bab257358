package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/rda"
)

// metricDef names a metric and its unit; BENCHMARK.json repeats the
// names with the direction and, for end-to-end metrics, the bound.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tx_per_s", "1/s"},
	{"commit_p50_us", "us"},
	{"transfers_per_commit", "count"},
	{"write_amp", "B/B"},
	{"alloc_kb_per_commit", "KiB"},
	{"live_heap_mb", "MiB"},
	{"restart_ms", "ms"},
	{"restart_hard_ms", "ms"},
	{"rebuild_mb_per_s", "MB/s"},
}

// countMetrics are the end-to-end metrics computed from the engine's
// transfer and byte counters alone: on a single-driver workload they are
// a function of the seed, and repeat to the last bit.
var countMetrics = []string{"transfers_per_commit", "write_amp"}

func isCount(name string) bool {
	for _, c := range countMetrics {
		if c == name {
			return true
		}
	}
	return false
}

// perLayer is what a traced run reports.
var perLayer = []metricDef{
	{"rda.begin_us", "us"}, {"rda.read_us", "us"}, {"rda.write_us", "us"},
	{"rda.commit_us", "us"}, {"rda.commit_p99_us", "us"}, {"rda.abort_us", "us"}, {"rda.checkpoint_ms", "ms"},
	{"rda.begin_share", "share"}, {"rda.read_share", "share"}, {"rda.write_share", "share"},
	{"rda.commit_share", "share"}, {"rda.abort_share", "share"},
	{"rda.checkpoint_stall_share", "share"}, {"rda.driver_share", "share"},
	{"rda.cpu_us_per_commit", "us"}, {"rda.gc_cycles_per_kcommit", "count"},
	{"rda.trace_overhead_pct", "%"},
	{"buffer.hit_rate", "share"}, {"buffer.steals_per_commit", "count"}, {"buffer.get_hit_ns", "ns"},
	{"lock.acquire_release_ns", "ns"}, {"latch.acquire_release_ns", "ns"},
	{"wal.transfers_per_commit", "count"}, {"wal.bytes_per_commit", "B"}, {"wal.records_per_commit", "count"},
	{"wal.append_page_ns", "ns"}, {"wal.append_record_ns", "ns"},
	{"record.write_ns", "ns"},
	{"page.checksum_mb_per_s", "MB/s"},
	{"xorparity.xor_mb_per_s", "MB/s"}, {"erasure.add_mb_per_s", "MB/s"}, {"erasure.muladd_mb_per_s", "MB/s"},
	{"disk.read_ns", "ns"}, {"disk.write_ns", "ns"}, {"disk.sleep_overshoot_pct", "%"},
	{"diskarray.reads_per_commit", "count"}, {"diskarray.writes_per_commit", "count"}, {"diskarray.imbalance", "ratio"},
	{"core.degraded_reads_per_commit", "count"}, {"core.degraded_writes_per_commit", "count"}, {"core.read_repairs", "count"},
	{"recovery.transfers_per_restart", "count"}, {"recovery.transfers_per_hard_restart", "count"},
	{"recovery.redone_per_restart", "count"}, {"recovery.undone_parity_per_restart", "count"},
	{"recovery.undone_log_per_restart", "count"}, {"recovery.us_per_redone", "us"},
	{"rebuild.transfers_per_group", "count"}, {"rebuild.ms_per_cycle", "ms"},
	{"pipeline.inflight_per_commit", "count"},
}

// result is one run of one workload.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
	// samples records how many timed intervals stand behind the medians
	// and percentiles, for the printed table.
	samples map[string]int
	// phases is the wall time of each phase, checks included, for the
	// printed header.
	phases string
}

// median returns the middle value of v, or the mean of the two middle
// values; 0 for no samples.
func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// quantile returns the q-quantile of v (nearest rank); 0 for no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// options are the settings of one run.
type options struct {
	seed    int64
	scale   float64 // multiplies transaction and cycle counts
	traced  bool
	spanDir string // where a traced run writes its spans
}

// measured is what the phases of one run produced.
type measured struct {
	w          workload
	e          *env
	setups     []float64 // seconds per set-up round
	st         steadyResult
	soft, hard timed // restarts after Crash and after CrashHard
	reb        timed
}

// runWorkload runs every phase of one workload and computes its metrics:
// the end-to-end set on an untraced run, the per-layer set on a traced
// one.
func runWorkload(w workload, o options) (result, error) {
	res := result{metrics: map[string]float64{}, samples: map[string]int{}}
	epoch := time.Now()

	r := measured{w: w}
	for i := 0; i < setupRounds; i++ {
		r.e = nil // the previous round's engine must not count as live heap
		t0 := time.Now()
		var err error
		if r.e, err = setup(w, o.seed, o.scale); err != nil {
			return res, fmt.Errorf("setup: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	e := r.e

	// Spans of the phases and of the single-goroutine restart and rebuild
	// calls go to the first driver's tracer.
	var tr *tracer
	var tracers []*tracer
	if o.traced {
		ids := &spanIDs{}
		for _, d := range e.drivers {
			d.tr = newTracer(epoch, ids, len(d.open))
			tracers = append(tracers, d.tr)
		}
		tr = tracers[0]
		tr.record("setup", 0, epoch, time.Now())
	}
	phase := func(name string) (id int64, done func()) {
		if tr == nil {
			return 0, func() {}
		}
		i := len(tr.spans)
		now := time.Now()
		id = tr.record(name, 0, now, now)
		return id, func() { tr.spans[i].End = time.Since(epoch).Nanoseconds() }
	}

	tSteady := time.Now()
	id, done := phase("steady")
	for _, t := range tracers {
		t.phase = id
	}
	var err error
	r.st, err = e.steady(id)
	done()
	if err != nil {
		return res, err
	}
	if w.cfg.EOT == rda.NoForce {
		// Committed pages may still sit in the buffer; the output check
		// reads the platters.
		if err := e.db.Checkpoint(); err != nil {
			return res, err
		}
	}
	if err := e.check(e.db.VerifyParity); err != nil {
		return res, err
	}

	tRestart := time.Now()
	id, done = phase("restart")
	if r.soft, err = e.restarts(scaled(w.softCycles, o.scale), scaled(w.softBurst, o.scale), w.softBatch, false, tr, id); err != nil {
		return res, err
	}
	r.hard, err = e.restarts(scaled(w.hardCycles, o.scale), scaled(w.hardBurst, o.scale), 1, true, tr, id)
	done()
	if err != nil {
		return res, err
	}

	tRebuild := time.Now()
	id, done = phase("rebuild")
	r.reb, err = e.rebuilds(scaled(w.rebuildCycles, o.scale), tr, id)
	done()
	if err != nil {
		return res, err
	}

	res.phases = fmt.Sprintf("setup=%.1fs steady=%.1fs restart=%.1fs rebuild=%.1fs",
		tSteady.Sub(epoch).Seconds(), tRestart.Sub(tSteady).Seconds(), tRebuild.Sub(tRestart).Seconds(), time.Since(tRebuild).Seconds())
	for _, d := range e.drivers {
		res.attempted += d.attempted
		res.failed += d.failed
	}
	res.attempted += e.checked + int64(len(r.soft.reports)+len(r.hard.reports)+len(r.reb.times))
	res.failed += e.bad

	if !o.traced {
		r.endToEnd(&res)
		return res, nil
	}
	r.perLayer(res.metrics, tracers, time.Duration(float64(driveTime)*math.Min(o.scale, 1)))
	if err := writeSpans(o.spanDir, w.name, tracers); err != nil {
		return res, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

// endToEnd computes the metrics of an untraced run.  Every time is raw
// wall clock.
func (r *measured) endToEnd(res *result) {
	st, m := &r.st, res.metrics
	commits := float64(st.commits)
	softMs, hardMs := durations(r.soft.times, time.Millisecond), durations(r.hard.times, time.Millisecond)
	rebMs := durations(r.reb.times, time.Millisecond)
	// Like tx_per_s, the latency is the median slice's: a stall of the
	// host that hits fewer than half the slices does not reach it.
	var p50 []float64
	commitsTimed := 0
	for _, slice := range st.lat {
		p50 = append(p50, quantile(durations(slice, time.Microsecond), 0.5))
		commitsTimed += len(slice)
	}
	delta := float64(st.after.TotalTransfers() - st.before.TotalTransfers())
	written := float64(st.after.DiskWrites-st.before.DiskWrites)*float64(r.w.cfg.PageSize) +
		float64(st.after.LogBytes-st.before.LogBytes)
	m["setup_s"] = median(r.setups)
	m["tx_per_s"] = st.rate
	m["commit_p50_us"] = median(p50)
	m["transfers_per_commit"] = ratio(delta, commits)
	m["write_amp"] = ratio(written, float64(st.payloadBytes))
	m["alloc_kb_per_commit"] = ratio(float64(st.allocBytes)/1024, commits)
	m["live_heap_mb"] = (float64(st.liveHeap) - float64(r.e.heapBase)) / (1 << 20)
	m["restart_ms"] = median(softMs) / float64(r.w.softBatch)
	m["restart_hard_ms"] = median(hardMs)
	rebuilt := float64(r.e.db.NumGroups() * r.w.cfg.PageSize * r.w.rebuildDisks)
	m["rebuild_mb_per_s"] = ratio(rebuilt/1e6, median(rebMs)/1e3)
	res.samples["setup_s"] = len(r.setups)
	res.samples["tx_per_s"] = slices
	res.samples["commit_p50_us"] = commitsTimed
	res.samples["restart_ms"], res.samples["restart_hard_ms"] = len(softMs), len(hardMs)
	res.samples["rebuild_mb_per_s"] = len(rebMs)
}

// perLayer computes the metrics of a traced run into m: the tracers'
// call timings, the engine's counters over steady, the recovery reports,
// and the leaf functions driven for driveEach apiece.  Times are raw.
func (r *measured) perLayer(m map[string]float64, tracers []*tracer, driveEach time.Duration) {
	st, soft, hard, reb := &r.st, &r.soft, &r.hard, &r.reb
	commits := float64(st.commits)
	softMs, rebMs := durations(soft.times, time.Millisecond), durations(reb.times, time.Millisecond)

	var count [nKinds]int64
	var busy [nKinds]time.Duration
	var outside time.Duration
	for _, t := range tracers {
		for k := range count {
			count[k] += t.count[k]
			busy[k] += t.busy[k]
		}
		outside += t.outside
	}
	wall := float64(st.tracedWall)
	for k, name := range kindNames {
		if kind(k) == kindCheckpoint {
			continue
		}
		m[name+"_us"] = ratio(float64(busy[k])/1e3, float64(count[k]))
		m[name+"_share"] = ratio(float64(busy[k]), wall)
	}
	// The tail of Commit() over the untraced (even) slices, median slice.
	var p99 []float64
	for s := 0; s < slices; s += 2 {
		p99 = append(p99, quantile(durations(st.lat[s], time.Microsecond), 0.99))
	}
	m["rda.commit_p99_us"] = median(p99)
	m["rda.checkpoint_ms"] = median(durations(st.checkpoints, time.Millisecond))
	m["rda.checkpoint_stall_share"] = ratio(float64(busy[kindCheckpoint]), wall)
	m["rda.driver_share"] = ratio(float64(outside), wall)
	m["rda.cpu_us_per_commit"] = ratio(float64(st.cpu)/1e3, commits)
	m["rda.gc_cycles_per_kcommit"] = ratio(float64(st.gcCycles)*1e3, commits)
	m["rda.trace_overhead_pct"] = (ratio(st.rate, st.tracedRate) - 1) * 100

	a, b := st.after, st.before
	m["buffer.hit_rate"] = ratio(float64(a.BufferHits-b.BufferHits), float64(a.BufferHits-b.BufferHits+a.BufferMisses-b.BufferMisses))
	m["buffer.steals_per_commit"] = ratio(float64(a.Steals-b.Steals), commits)
	m["wal.transfers_per_commit"] = ratio(float64(a.LogWriteTransfers-b.LogWriteTransfers+a.LogReadTransfers-b.LogReadTransfers), commits)
	m["wal.bytes_per_commit"] = ratio(float64(a.LogBytes-b.LogBytes), commits)
	m["wal.records_per_commit"] = ratio(float64(a.LogRecords-b.LogRecords), commits)
	m["diskarray.reads_per_commit"] = ratio(float64(a.DiskReads-b.DiskReads), commits)
	m["diskarray.writes_per_commit"] = ratio(float64(a.DiskWrites-b.DiskWrites), commits)
	var most, total float64
	for i := range st.diskAfter {
		d := float64(st.diskAfter[i] - st.diskBefore[i])
		total += d
		if d > most {
			most = d
		}
	}
	m["diskarray.imbalance"] = ratio(most, total/float64(len(st.diskAfter)))
	m["core.degraded_reads_per_commit"] = ratio(float64(a.DegradedReads-b.DegradedReads), commits)
	m["core.degraded_writes_per_commit"] = ratio(float64(a.DegradedWrites-b.DegradedWrites), commits)
	m["core.read_repairs"] = float64(a.ReadRepairs - b.ReadRepairs)

	// The recovery counts describe the soft restarts, the family behind
	// restart_ms; the hard family adds only its transfer count.
	var redone, undoneParity, undoneLog float64
	for _, rep := range soft.reports {
		redone += float64(rep.Redone)
		undoneParity += float64(rep.UndoneViaParity)
		undoneLog += float64(rep.UndoneViaLog)
	}
	restarts := float64(len(soft.reports))
	m["recovery.transfers_per_restart"] = ratio(float64(soft.transfers), restarts)
	m["recovery.transfers_per_hard_restart"] = ratio(float64(hard.transfers), float64(len(hard.reports)))
	m["recovery.redone_per_restart"] = ratio(redone, restarts)
	m["recovery.undone_parity_per_restart"] = ratio(undoneParity, restarts)
	m["recovery.undone_log_per_restart"] = ratio(undoneLog, restarts)
	m["recovery.us_per_redone"] = ratio(median(softMs)*1e3/float64(r.w.softBatch), ratio(redone, restarts))
	m["rebuild.transfers_per_group"] = ratio(float64(reb.transfers), float64(len(reb.times)*r.e.db.NumGroups()))
	m["rebuild.ms_per_cycle"] = median(rebMs)

	driveLayers(r.w.cfg, driveEach, m)
	// Achieved I/O overlap: the transfers of one commit, each taking the
	// measured service time, fit into the commit's latency this many
	// times over.  Zero on drives that do not sleep.
	service := float64(r.w.cfg.IODelay) / 1e3 * (1 + m["disk.sleep_overshoot_pct"]/100)
	m["pipeline.inflight_per_commit"] = ratio(
		ratio(float64(a.TotalTransfers()-b.TotalTransfers()), commits)*service,
		quantile(durations(st.lat[0], time.Microsecond), 0.5))
}
