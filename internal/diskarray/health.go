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
// as disks fail-stop and are rebuilt online.  Without QParity a second
// overlapping loss drops the array to Failed — some parity groups have
// lost two blocks and XOR redundancy cannot recover them without a
// media-recovery pass (RepairDisks).  With QParity the second loss is
// still inside the redundancy (DoubleDegraded); only a THIRD overlapping
// loss fails the array.
type Health int

const (
	// Healthy: all disks serving.
	Healthy Health = iota
	// Degraded: exactly one disk is down; reads of its blocks must be
	// reconstructed from parity + survivors.
	Degraded
	// Rebuilding: the down disk(s) have been replaced by fresh drives and
	// a rebuild worker is reconstructing their blocks; unrestored blocks
	// must still be served degraded.
	Rebuilding
	// Failed: overlapping disk losses exceed the array's redundancy
	// (two for single parity, three with QParity).  I/O errors are
	// wrapped in ErrArrayFailed.
	Failed
	// DoubleDegraded: exactly two disks are down on a QParity array;
	// reads of their blocks must be reconstructed from the P and Q
	// equations together (internal/erasure).
	DoubleDegraded
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case DoubleDegraded:
		return "double-degraded"
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

// DownDisk returns the disk currently down (Degraded) or being rebuilt
// (Rebuilding), or -1 when the array is Healthy.  When several disks are
// down (DoubleDegraded, Failed) it returns the oldest loss; use DownDisks
// for the full set.
func (a *Array) DownDisk() int {
	a.hmu.Lock()
	defer a.hmu.Unlock()
	if len(a.downd) == 0 {
		return -1
	}
	return a.downd[0]
}

// DownDisks returns the disks currently down or being rebuilt, oldest
// loss first (empty when Healthy).
func (a *Array) DownDisks() []int {
	a.hmu.Lock()
	defer a.hmu.Unlock()
	out := make([]int, len(a.downd))
	copy(out, a.downd)
	return out
}

// lossBudget is the number of overlapping disk losses the redundancy can
// absorb: one per redundancy equation.
func (a *Array) lossBudget() int {
	if a.qparities > 0 {
		return 2
	}
	return 1
}

// healthFor returns the non-failed health state for n down disks.
func healthFor(n int) Health {
	switch n {
	case 0:
		return Healthy
	case 1:
		return Degraded
	default:
		return DoubleDegraded
	}
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
// health machine.  Losses inside the redundancy budget degrade the array
// (Degraded, then DoubleDegraded on QParity arrays); a loss beyond the
// budget fails it, and from then on every hard error is wrapped in
// ErrArrayFailed so callers get a typed signal instead of a raw disk
// error.
func (a *Array) noteFailed(d int, err error) error {
	a.hmu.Lock()
	defer a.hmu.Unlock()
	known := false
	for _, x := range a.downd {
		if x == d {
			known = true
			break
		}
	}
	switch {
	case a.health == Failed:
		// Already failed; keep wrapping below.
	case known:
		// A down disk (or its mid-rebuild replacement) erred again; fall
		// back from Rebuilding to the degraded state for the same losses.
		if a.health == Rebuilding {
			a.health = healthFor(len(a.downd))
		}
	case len(a.downd) < a.lossBudget():
		a.downd = append(a.downd, d)
		a.health = healthFor(len(a.downd))
	default:
		a.downd = append(a.downd, d)
		a.health = Failed
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
	a.health = Rebuilding
	a.downd = append([]int(nil), ds...)
	for i, d := range a.disks {
		if d.Failed() && !slices.Contains(ds, i) {
			a.downd = append(a.downd, i) // left down beside the replacements
		}
	}
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
	a.downd = nil
	for i, d := range a.disks {
		if d.Failed() {
			a.downd = append(a.downd, i)
		}
	}
	a.health = healthFor(len(a.downd))
	if len(a.downd) > a.lossBudget() {
		a.health = Failed
	}
}
