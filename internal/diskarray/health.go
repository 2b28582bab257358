package diskarray

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/disk"
	"repro/internal/workpool"
)

// Health is the array's availability state.  The machine moves
//
//	Healthy → Degraded → Rebuilding → Healthy
//
// as disks fail-stop and are rebuilt online; the down set (HealthView)
// says how many drives are down.  A loss beyond the redundancy — a second
// overlapping one with single parity, a third with QParity — drops the
// array to Failed: some parity groups have lost more blocks than their
// equations recover without a media-recovery pass (RepairDisks).  Every
// change of the state or of the down set advances the array's health
// generation, which the engine adopts as one snapshot.
type Health int

const (
	// Healthy: all disks serving.
	Healthy Health = iota
	// Degraded: one disk is down (two on a QParity array); reads of their
	// blocks must be reconstructed from the surviving redundancy.
	Degraded
	// Rebuilding: the down disk(s) have been replaced by fresh drives and
	// a rebuild worker is reconstructing their blocks; unrestored blocks
	// must still be served degraded.
	Rebuilding
	// Failed: overlapping disk losses exceed the array's redundancy
	// (two for single parity, three with QParity).  I/O errors are
	// wrapped in ErrArrayFailed.
	Failed
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Rebuilding:
		return "rebuilding"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("Health(%d)", int(h))
	}
}

// ErrArrayFailed reports that overlapping disk losses exceed the array's
// redundancy: a second loss on a single-parity array, a third on a
// QParity array.  Affected groups cannot be served; media recovery
// (RepairDisks) is the only way out.
var ErrArrayFailed = errors.New("diskarray: array failed, overlapping disk losses exceed redundancy")

// HealingStats counts the work done by the self-healing retry layer.
type HealingStats struct {
	// Retries is the number of transient I/O errors absorbed by the
	// retry loop (each one is a re-issued block operation).
	Retries uint64
	// BackoffUnits is the total deterministic backoff charged before
	// retries, in abstract units (1, 2, 4, ... per successive attempt).
	// The simulator does not sleep; the counter stands in for wall time.
	BackoffUnits uint64
	// AutoFailStops is the number of disks fail-stopped automatically
	// after failStopAfter consecutive errored attempts.
	AutoFailStops uint64
}

// Health returns the array's current availability state.
func (a *Array) Health() Health {
	a.hmu.Lock()
	defer a.hmu.Unlock()
	return a.health
}

// HealthView returns the array's state, its down set — the disks down or
// being rebuilt, oldest loss first, empty when Healthy — and the health
// generation, which every change of the two advances: one consistent
// snapshot, so a caller that holds on to the generation can tell whether
// what it saw is still current.
func (a *Array) HealthView() (Health, []int, uint64) {
	a.hmu.Lock()
	defer a.hmu.Unlock()
	return a.health, slices.Clone(a.downd), a.gen
}

// setHealth moves the machine to h with down set downd and advances the
// generation.  Called with hmu held.
func (a *Array) setHealth(h Health, downd []int) {
	a.health, a.downd = h, downd
	a.gen++
}

// lossBudget is the number of overlapping disk losses the redundancy can
// absorb: one per redundancy equation.
func (a *Array) lossBudget() int {
	if a.qparities > 0 {
		return 2
	}
	return 1
}

// healthFor returns the health state for the down set outside a rebuild.
func (a *Array) healthFor(down []int) Health {
	switch {
	case len(down) == 0:
		return Healthy
	case len(down) > a.lossBudget():
		return Failed
	}
	return Degraded
}

// Healing returns the cumulative self-healing counters.
func (a *Array) Healing() HealingStats {
	a.hmu.Lock()
	defer a.hmu.Unlock()
	return a.healing
}

// do runs one block I/O against disk d through the retry layer.
//
// Transient errors (disk.ErrTransient) are retried up to retryAttempts
// times with deterministic exponential backoff (recorded in abstract
// units, never slept).  Each errored attempt bumps the disk's
// consecutive-error count; any success resets it.  When the count reaches
// failStopAfter the disk is fail-stopped automatically — a drive that
// keeps erroring is treated as dead rather than allowed to stall the
// engine — and the error converts to the ErrFailed class so the layers
// above serve the request degraded instead of surfacing a spurious
// failure.  Hard errors (ErrFailed) feed the health machine; data errors
// (ErrChecksum, ErrStamp, ErrOutOfRange) pass through untouched, as they
// indicate bad blocks rather than a bad drive — retrying would re-read
// the same bad bytes, and the verified-read layer above repairs them
// from group redundancy instead.
func (a *Array) do(d int, op func() error) error {
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil {
			if a.consec[d].Load() != 0 {
				a.consec[d].Store(0)
			}
			return nil
		}
		if disk.IsTransient(err) {
			a.hmu.Lock()
			a.healing.Retries++
			trip := a.consec[d].Add(1) >= failStopAfter
			if trip {
				a.healing.AutoFailStops++
			} else if attempt < retryAttempts {
				a.healing.BackoffUnits += 1 << (attempt - 1)
			}
			a.hmu.Unlock()
			if trip {
				a.disks[d].Fail()
				return a.noteFailed(d, fmt.Errorf("%w: disk %d fail-stopped after %d consecutive transient errors", disk.ErrFailed, d, failStopAfter))
			}
			if attempt < retryAttempts {
				continue
			}
			return err
		}
		if errors.Is(err, disk.ErrFailed) {
			return a.noteFailed(d, err)
		}
		return err
	}
}

// noteFailed records that disk d returned a hard failure and advances the
// health machine.  Losses inside the redundancy budget degrade the array;
// a loss beyond the budget fails it, and from then on every hard error is
// wrapped in ErrArrayFailed so callers get a typed signal instead of a raw
// disk error.
func (a *Array) noteFailed(d int, err error) error {
	a.hmu.Lock()
	defer a.hmu.Unlock()
	switch {
	case a.health == Failed:
		// Already failed; keep wrapping below.
	case !slices.Contains(a.downd, d):
		down := append(a.downd, d)
		a.setHealth(a.healthFor(down), down)
	case a.health == Rebuilding:
		// A mid-rebuild replacement died: fall back to serving the same
		// losses degraded.
		a.setHealth(a.healthFor(a.downd), a.downd)
	}
	if a.health == Failed && !errors.Is(err, ErrArrayFailed) {
		err = fmt.Errorf("%w: %v", ErrArrayFailed, err)
	}
	return err
}

// ProbeDisks touches every drive once — one charged header read of block
// 0 each, the restart-time spin-up check, `workers` drives at a time — so
// that any disk that died at (or since) the crash is discovered by the
// health machine *before* recovery plans its passes, instead of surfacing
// as a surprise error in the middle of one.  Probe errors are not returned:
// the point is the health-machine side effect, and a dead drive's groups
// are handled by the degraded recovery path.
func (a *Array) ProbeDisks(workers int) {
	_ = workpool.Run(workers, len(a.disks), func(d int) error {
		_ = a.do(d, func() error {
			_, err := a.disks[d].ReadMeta(0)
			return err
		})
		return nil
	})
}

// BeginRebuild swaps fresh zeroed drives in for the given down disks and
// marks the array Rebuilding: the one drive swap, of the online rebuild and
// of media recovery alike.  The caller owns reconstructing the drives'
// blocks and must call FinishRebuild when done; until then reads of
// unrestored blocks return zeroes and must be served degraded by the
// layers above.  A QParity array rebuilds up to two drives in one pass —
// the two-drive rebuild.
func (a *Array) BeginRebuild(ds ...int) error {
	for _, d := range ds {
		if d < 0 || d >= len(a.disks) {
			return fmt.Errorf("diskarray: no disk %d", d)
		}
	}
	for _, d := range ds {
		a.disks[d].Repair()
		a.resetLedger(d)
	}
	a.hmu.Lock()
	defer a.hmu.Unlock()
	down := slices.Clone(ds)
	for i, d := range a.disks {
		if d.Failed() && !slices.Contains(ds, i) {
			down = append(down, i) // left down beside the replacements
		}
	}
	a.setHealth(Rebuilding, down)
	for i := range a.consec {
		a.consec[i].Store(0)
	}
	return nil
}

// FinishRebuild closes a rebuild or a media repair: the array re-derives
// its health from the drives' fail-stop flags — Healthy when every drive
// serves, degraded around the ones still down, Failed beyond the budget.
func (a *Array) FinishRebuild() {
	a.hmu.Lock()
	defer a.hmu.Unlock()
	var down []int
	for i, d := range a.disks {
		if d.Failed() {
			down = append(down, i)
		}
	}
	a.setHealth(a.healthFor(down), down)
}
