package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/page"
)

// refLog is the naive reference the segmented log is checked against: the
// retained records as a slice plus the byte arithmetic of the single
// contiguous buffer the log used to be.
type refLog struct {
	cfg       Config
	recs      []Record
	lens      []int // frame length of each retained record
	firstLSN  LSN
	baseOff   int
	forcedLSN LSN
	forcedOff int
	stats     Stats
}

func (m *refLog) tail() LSN { return m.firstLSN + LSN(len(m.recs)) - 1 }

// off returns the stream position of retained record n (or of the tail
// for n one past it).
func (m *refLog) off(n LSN) int {
	o := m.baseOff
	for i := 0; i < int(n-m.firstLSN); i++ {
		o += m.lens[i]
	}
	return o
}

func (m *refLog) append(r Record, force bool) LSN {
	r.LSN = m.tail() + 1
	r.Image = append([]byte(nil), r.Image...)
	r.Active = append([]page.TxID(nil), r.Active...)
	n := len(encode(nil, &r))
	m.recs, m.lens = append(m.recs, r), append(m.lens, n)
	m.stats.Records++
	m.stats.Bytes += int64(n)
	m.stats.LogPages = int64((m.off(r.LSN+1)-1)/m.cfg.LogPageSize + 1)
	if force {
		m.force(r.LSN)
	}
	return r.LSN
}

func (m *refLog) force(upTo LSN) int64 {
	upTo = min(upTo, m.tail())
	if upTo <= m.forcedLSN {
		return 0
	}
	var charged int64
	if end := m.off(upTo + 1); end > m.forcedOff {
		pages := (end-1)/m.cfg.LogPageSize - m.forcedOff/m.cfg.LogPageSize + 1
		if m.cfg.Packed {
			pages = (end-1)/m.cfg.LogPageSize - (m.forcedOff-1)/m.cfg.LogPageSize
		}
		charged = int64(pages * m.cfg.WriteCost)
		m.stats.Transfers += charged
		m.forcedOff = end
	}
	m.forcedLSN = upTo
	return charged
}

func (m *refLog) dropUnforced() int {
	keep := 0
	if m.forcedLSN >= m.firstLSN {
		keep = int(m.forcedLSN - m.firstLSN + 1)
	}
	dropped := len(m.recs) - keep
	if dropped <= 0 {
		return 0
	}
	m.recs, m.lens = m.recs[:keep], m.lens[:keep]
	return dropped
}

func (m *refLog) truncate(keep LSN) int {
	if keep <= m.firstLSN {
		return 0
	}
	keep = min(keep, m.tail()+1)
	drop := int(keep - m.firstLSN)
	m.baseOff = m.off(keep)
	m.recs, m.lens = m.recs[drop:], m.lens[drop:]
	m.firstLSN = keep
	m.forcedLSN = max(m.forcedLSN, keep-1)
	m.forcedOff = max(m.forcedOff, m.baseOff)
	return drop
}

func (m *refLog) chargeScan(from, to LSN) int64 {
	from, to = max(from, m.firstLSN), min(to, m.tail())
	if len(m.recs) == 0 || from > to {
		return 0
	}
	pages := int64((m.off(to+1)-1)/m.cfg.LogPageSize - m.off(from)/m.cfg.LogPageSize + 1)
	m.stats.ReadTransfers += pages
	return pages
}

func sameRecord(a, b Record) bool {
	if a.LSN != b.LSN || a.Type != b.Type || a.Txn != b.Txn || a.Page != b.Page || a.Slot != b.Slot ||
		!bytes.Equal(a.Image, b.Image) || len(a.Active) != len(b.Active) {
		return false
	}
	for i := range a.Active {
		if a.Active[i] != b.Active[i] {
			return false
		}
	}
	return true
}

// TestSegmentedLogMatchesModel drives random operation sequences against
// the log and the reference, with truncation points mid-segment, exactly
// on a segment boundary and past the tail, and with frames larger than a
// segment, and demands identical LSNs, contents, watermarks and cost
// counters after every step.
func TestSegmentedLogMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		cfg := Config{LogPageSize: 2020, WriteCost: 4, Packed: seed%2 == 0}
		rng := rand.New(rand.NewSource(seed))
		l, m := New(cfg), &refLog{cfg: cfg, firstLSN: 1}
		images := [][]byte{nil, make([]byte, 2048), make([]byte, 104), make([]byte, 31)}
		for _, img := range images {
			rng.Read(img)
		}
		randomRecord := func() Record {
			r := Record{Type: Type(1 + rng.Intn(6)), Txn: page.TxID(rng.Intn(50)), Page: page.PageID(rng.Intn(1000)), Slot: NoSlot}
			switch x := rng.Intn(100); {
			case x == 0:
				r = Record{Type: TypeCheckpoint, Slot: NoSlot}
				for i := 0; i < 8200+rng.Intn(3000); i++ { // 66–90 KB: larger than a segment
					r.Active = append(r.Active, page.TxID(rng.Uint64()))
				}
			case x < 60:
				r.Image = images[1+rng.Intn(3)]
				r.Slot = int32(rng.Intn(8)) - 1
			}
			return r
		}
		for step := 0; step < 2500; step++ {
			what := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(100); {
			case op < 45:
				r := randomRecord()
				if got, want := l.Append(r), m.append(r, true); got != want {
					t.Fatalf("%s: Append LSN %d, model %d", what, got, want)
				}
			case op < 65:
				r := randomRecord()
				if got, want := l.AppendUnforced(r), m.append(r, false); got != want {
					t.Fatalf("%s: AppendUnforced LSN %d, model %d", what, got, want)
				}
			case op < 72:
				upTo := m.firstLSN + LSN(rng.Intn(len(m.recs)+3)) - 1
				if got, want := l.Force(upTo), m.force(upTo); got != want {
					t.Fatalf("%s: Force(%d) charged %d, model %d", what, upTo, got, want)
				}
			case op < 75:
				if got, want := l.DropUnforced(), m.dropUnforced(); got != want {
					t.Fatalf("%s: DropUnforced %d, model %d", what, got, want)
				}
			case op < 92:
				var keep LSN
				switch k := rng.Intn(10); {
				case k == 0:
					keep = m.tail() + 1 + LSN(rng.Intn(3)) // everything, and past the tail
				case k < 4 && len(l.segs) > 0:
					keep = l.segs[rng.Intn(len(l.segs))].lsn0 // exactly a segment boundary
				default:
					keep = m.firstLSN + LSN(rng.Intn(len(m.recs)/2+2)) - 1
				}
				if got, want := l.Truncate(keep), m.truncate(keep); got != want {
					t.Fatalf("%s: Truncate(%d) dropped %d, model %d", what, keep, got, want)
				}
			default:
				from := m.firstLSN + LSN(rng.Intn(len(m.recs)+4)) - 2
				to := from + LSN(rng.Intn(len(m.recs)+2))
				if got, want := l.ChargeScan(from, to), m.chargeScan(from, to); got != want {
					t.Fatalf("%s: ChargeScan(%d,%d) %d, model %d", what, from, to, got, want)
				}
			}
			if l.FirstLSN() != m.firstLSN || l.ForcedLSN() != m.forcedLSN || LSN(l.Len()) != m.tail() || l.Stats() != m.stats {
				t.Fatalf("%s: first/forced/len/stats = %d/%d/%d/%+v, model %d/%d/%d/%+v", what,
					l.FirstLSN(), l.ForcedLSN(), l.Len(), l.Stats(), m.firstLSN, m.forcedLSN, m.tail(), m.stats)
			}
			for _, n := range []LSN{m.firstLSN - 1, m.tail() + 1} {
				if _, err := l.Read(n); err == nil {
					t.Fatalf("%s: Read(%d) outside [%d,%d] succeeded", what, n, m.firstLSN, m.tail())
				}
			}
			if step%25 != 0 && len(m.recs) > 0 {
				i := rng.Intn(len(m.recs))
				if got, err := l.Read(m.recs[i].LSN); err != nil || !sameRecord(got, m.recs[i]) {
					t.Fatalf("%s: Read(%d) = %+v, %v", what, m.recs[i].LSN, got, err)
				}
				continue
			}
			from := m.firstLSN + LSN(rng.Intn(len(m.recs)+1))
			i := int(from - m.firstLSN)
			if err := l.Scan(from, func(r Record) bool {
				if i >= len(m.recs) || !sameRecord(r, m.recs[i]) {
					t.Fatalf("%s: Scan(%d) record %d diverges from the model", what, from, i)
				}
				i++
				return true
			}); err != nil || i != len(m.recs) {
				t.Fatalf("%s: Scan(%d) stopped at %d of %d: %v", what, from, i, len(m.recs), err)
			}
			i = len(m.recs) - 1
			if err := l.ScanBackward(func(r Record) bool {
				if i < 0 || !sameRecord(r, m.recs[i]) {
					t.Fatalf("%s: ScanBackward record %d diverges from the model", what, i)
				}
				i--
				return true
			}); err != nil || i != -1 {
				t.Fatalf("%s: ScanBackward stopped at %d: %v", what, i, err)
			}
		}
	}
}

// TestWarmLogDoesNotAllocate guards the point of the segments: once the
// tail segment and the spare exist, appending and truncating allocate
// nothing — whether the log keeps a window of records or empties.
func TestWarmLogDoesNotAllocate(t *testing.T) {
	img := make([]byte, 2048)
	for name, keep := range map[string]LSN{"window": 4, "emptied": 0} {
		l := New(DefaultConfig())
		round := func() {
			for i := 0; i < 40; i++ { // 83 KB: crosses a segment boundary every round
				n := l.Append(Record{Type: TypeAfterImage, Txn: 1, Page: page.PageID(i), Slot: NoSlot, Image: img})
				if i%8 == 7 {
					l.Truncate(n + 1 - keep)
				}
			}
		}
		round()
		if n := testing.AllocsPerRun(50, round) / 40; n >= 0.1 {
			t.Errorf("%s: warmed append+truncate allocates %.2f times per record, want < 0.1", name, n)
		}
	}
}

func benchAppendTruncate(b *testing.B, image []byte, slot int32) {
	l := New(DefaultConfig())
	b.SetBytes(int64(len(image)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := l.Append(Record{Type: TypeAfterImage, Txn: 1, Page: page.PageID(i), Slot: slot, Image: image})
		if i%4 == 3 {
			l.Truncate(n - 8) // every commit truncates to the oldest open transaction
		}
	}
}

// BenchmarkLogAppendTruncate is the commit path's log traffic: forced
// appends with a truncation every fourth record that keeps eight.
func BenchmarkLogAppendTruncate(b *testing.B) {
	b.Run("page", func(b *testing.B) { benchAppendTruncate(b, make([]byte, 2048), NoSlot) })
	b.Run("record", func(b *testing.B) { benchAppendTruncate(b, make([]byte, 104), 3) })
}

// TestSparesFollowTheRetainedLog: a truncation that frees far more than
// the log still retains keeps a bounded few segments, not the high-water
// mark.
func TestSparesFollowTheRetainedLog(t *testing.T) {
	img := make([]byte, 2048)
	l := New(DefaultConfig())
	var last LSN
	for i := 0; i < 400; i++ { // ≈ 830 KB, some fifty segments
		last = l.Append(Record{Type: TypeAfterImage, Txn: 1, Page: page.PageID(i), Slot: NoSlot, Image: img})
	}
	l.Truncate(last - 10) // three segments survive
	if n := len(l.spares); n > len(l.segs)+2 || n > maxSpares {
		t.Fatalf("%d spares beside %d retained segments (bound: retained+2 and %d)", n, len(l.segs), maxSpares)
	}
	l.Truncate(last + 1)
	if len(l.segs) != 0 || len(l.spares) > maxSpares {
		t.Fatalf("emptied log holds %d segments and %d spares", len(l.segs), len(l.spares))
	}
}
