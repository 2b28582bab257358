package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/workpool"
)

// BulkLoad writes a run of consecutive logical pages as committed data
// using full-stripe writes wherever the run covers a whole parity group
// (Section 3.1: the array organizations allow "large (full stripe)
// concurrent accesses" in addition to small ones).
//
// A full-stripe write computes the group's parity from the new data
// alone — N data writes plus one parity write, instead of N small writes
// at 3–4 transfers each — which is why loaders use it.  Groups only
// partially covered by the run fall back to WriteCommitted small writes.
// Full stripes touch disjoint groups, so they fan out Lanes() wide, as
// every whole-array loop does (one lane writes them inline in group
// order); the partial-group writes run sequentially first, because
// WriteCommitted's parity read-modify-write shares the Dirty_Set
// bookkeeping.
//
// All touched groups must be clean: bulk loading bypasses transactions
// and must not destroy undo material of in-flight work.  Returns the
// number of full-stripe writes performed.
func (s *Store) BulkLoad(start page.PageID, pages []page.Buf) (int, error) {
	// Index the run for O(1) coverage lookups.
	covered := func(p page.PageID) (page.Buf, bool) {
		if p < start || int(p-start) >= len(pages) {
			return nil, false
		}
		return pages[p-start], true
	}
	for i := range pages {
		if len(pages[i]) != s.Arr.PageSize() {
			return 0, fmt.Errorf("core: bulk page %d: %w", i, page.ErrBadSize)
		}
	}
	// Check cleanliness of every touched group up front.
	seen := make(map[page.GroupID]bool)
	for i := range pages {
		g := s.Arr.GroupOf(start + page.PageID(i))
		if seen[g] {
			continue
		}
		seen[g] = true
		if s.Dirty != nil && s.Dirty.IsDirty(g) {
			return 0, fmt.Errorf("core: bulk load would overwrite dirty group %d", g)
		}
	}

	// Partition the run: groups the run fully covers take a full-stripe
	// write; the rest of the pages take individual small writes.
	var fullGroups []page.GroupID
	var partial []page.PageID
	done := make(map[page.GroupID]bool)
	for i := range pages {
		p := start + page.PageID(i)
		g := s.Arr.GroupOf(p)
		if done[g] {
			continue
		}
		full := true
		for _, q := range s.Arr.GroupPages(g) {
			if _, ok := covered(q); !ok {
				full = false
				break
			}
		}
		if full {
			done[g] = true
			fullGroups = append(fullGroups, g)
			continue
		}
		partial = append(partial, p)
	}
	for _, p := range partial {
		buf, _ := covered(p)
		if err := s.WriteCommitted(p, buf, nil); err != nil {
			return 0, err
		}
	}
	var fullStripes atomic.Int64
	err := workpool.Run(s.Lanes(), len(fullGroups), func(i int) error {
		if err := s.bulkStripe(fullGroups[i], covered); err != nil {
			return err
		}
		fullStripes.Add(1)
		return nil
	})
	return int(fullStripes.Load()), err
}

// bulkStripe performs one full-stripe write: all of group g's data pages
// plus a freshly computed parity page.
func (s *Store) bulkStripe(g page.GroupID, covered func(page.PageID) (page.Buf, bool)) error {
	members := s.Arr.GroupPages(g)
	vals := make([]page.Buf, len(members))
	for j, q := range members {
		vals[j], _ = covered(q)
		if err := s.Arr.WriteData(q, vals[j], disk.Meta{}); err != nil {
			return fmt.Errorf("core: bulk write page %d: %w", q, err)
		}
	}
	// On twinned arrays the new redundancy lands on the obsolete index and
	// the bitmap flips, the same crash-friendly two-version discipline
	// as WriteCommitted (bulk loading itself is not atomic — loaders
	// re-run after a crash — but the parity flip never tears).
	twin := s.currentTwin(g)
	if s.Twins != nil {
		twin = s.Twins.Obsolete(g)
	}
	meta := disk.Meta{State: disk.StateCommitted, Timestamp: s.TM.NextTimestamp()}
	imgs := s.computeIndex(vals)
	err := s.writeIndex(g, twin, imgs, meta)
	s.Pages.Put(imgs[:]...)
	if err != nil {
		return err
	}
	if s.Twins != nil {
		s.Twins.Promote(g, twin)
	}
	return nil
}
