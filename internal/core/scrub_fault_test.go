package core

import (
	"errors"
	"testing"

	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/fault"
	"repro/internal/page"
)

// TestScrubRepairsInjectedBitFlip drives silent corruption through the
// fault plane rather than Disk.Corrupt: a BitFlip rule flips one payload
// bit of a block write in flight, leaving the stored checksum stale.
// Scrub must detect the latent error and rebuild the block from the
// group's redundancy.
func TestScrubRepairsInjectedBitFlip(t *testing.T) {
	for _, kind := range []diskarray.Kind{diskarray.RAID5Twin, diskarray.ParityStripeTwin} {
		s := newStore(t, kind)
		want := pattern(page.MinSize, 0x5A)

		// Flip bit 77 of the first block write issued after the plane is
		// installed (a page of the WriteCommitted below — data or parity,
		// scrub must cope with either).
		plane := fault.NewPlane(fault.Schedule{fault.BitFlip(0, 77)})
		s.Arr.SetInjector(plane)
		if err := s.WriteCommitted(7, want, nil); err != nil {
			t.Fatalf("%v: write: %v", kind, err)
		}
		s.Arr.SetInjector(nil)

		// The corruption is latent: parity no longer matches, or the data
		// block itself fails its checksum on read.
		if s.VerifyParityInvariant() == nil {
			if _, err := s.ReadPage(7, nil); !errors.Is(err, disk.ErrChecksum) {
				t.Fatalf("%v: injected flip left no latent error (read err %v)", kind, err)
			}
		}

		rep, _, err := scrub(s)
		if err != nil {
			t.Fatalf("%v: scrub: %v", kind, err)
		}
		if rep.LatentErrors != 1 || rep.Repaired != 1 {
			t.Fatalf("%v: report %+v, want 1 latent / 1 repaired", kind, rep)
		}
		got, err := s.ReadPage(7, nil)
		if err != nil {
			t.Fatalf("%v: read after scrub: %v", kind, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%v: page content not restored", kind)
		}
		if err := s.VerifyParityInvariant(); err != nil {
			t.Fatalf("%v: parity after scrub: %v", kind, err)
		}
	}
}
