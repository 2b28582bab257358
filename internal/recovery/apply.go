package recovery

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"repro/internal/record"
	"repro/internal/wal"
)

// loggedUndo is pass 4: the losers' logged before-images, newest first per
// loser.  Passes 4 and 6 share the applier and its two page buffers, drawn
// here.
func (st *state) loggedUndo() error {
	s, a := st.s, st.a
	st.old, st.new = s.Pages.Get(), s.Pages.Get()
	for _, tx := range a.losers {
		images := a.loserImages[tx]
		for i := len(images) - 1; i >= 0; i-- {
			n, _, err := st.apply(images[i:i+1], false)
			if err != nil {
				return fmt.Errorf("recovery: undo txn %d page %d: %w", tx, images[i].Page, err)
			}
			st.rep.UndoneViaLog += n
		}
	}
	return nil
}

// redo is pass 6: winners' post-checkpoint images ordered by (page, LSN),
// one apply per page in ascending order (group order under data striping).
// Pages of one group are not folded into one parity write: a partial-group
// batch has bystanders a tear would corrupt (see core.WriteStripeLogged).
func (st *state) redo() error {
	imgs, rep := st.a.redoImages, st.rep
	slices.SortFunc(imgs, func(x, y wal.Record) int {
		return cmp.Or(cmp.Compare(x.Page, y.Page), cmp.Compare(x.LSN, y.LSN))
	})
	for len(imgs) > 0 {
		k := 1
		for k < len(imgs) && imgs[k].Page == imgs[0].Page {
			k++
		}
		n, wrote, err := st.apply(imgs[:k], true)
		if err != nil {
			return fmt.Errorf("recovery: redo page %d: %w", imgs[0].Page, err)
		}
		rep.Redone += n
		if n > 0 {
			rep.RedonePages++
		}
		if wrote {
			rep.RedoneWrites++
		}
		imgs = imgs[k:]
	}
	return nil
}

// apply replays imgs — logged images of ONE page, in the order they take
// effect (record.Replay) — and reports how many it accounted for and
// whether the page had to be written.  A full-page image alone
// re-determines a lost page — a record image has no base left to patch, so
// without one the page stays zeroed and reported.  The page is read once
// (verified and read-repaired like every read) and written only if the
// replay changed it: equal bytes mean the platter already shows every
// image, whichever write put it there, so no timestamp is drawn and no twin
// flips.  A write is the store's ordinary crash-atomic page write,
// WriteCommitted for REDO and WriteLogged for logged undo, with the page
// just read as its old contents.
func (st *state) apply(imgs []wal.Record, committed bool) (applied int, wrote bool, err error) {
	s, p := st.s, imgs[0].Page
	if st.lost[p] && !slices.ContainsFunc(imgs, func(r wal.Record) bool { return r.Slot == wal.NoSlot }) {
		return 0, false, nil
	}
	delete(st.lost, p)
	old, err := s.ReadPage(p, st.old)
	if err != nil {
		return 0, false, err
	}
	cur := st.new
	if err := record.Replay(cur, old, imgs); err != nil {
		return 0, false, fmt.Errorf("recovery: page %d: %w", p, err)
	}
	if bytes.Equal(cur, old) && !st.a.mustWrite[p] {
		return len(imgs), false, nil
	}
	if committed {
		err = s.WriteCommitted(p, cur, old)
	} else {
		err = s.WriteLogged(p, cur, old, nil)
	}
	return len(imgs), err == nil, err
}
