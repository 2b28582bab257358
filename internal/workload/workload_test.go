package workload

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/rda"
	"repro/rda/trace"
)

// TestZipfianDistribution checks the generator's frequencies against the
// theoretical Zipf probabilities: over a large sample, each of the top
// ranks must land within a small relative tolerance of P(k) =
// 1/((k+1)^θ·ζ_n).
func TestZipfianDistribution(t *testing.T) {
	const (
		n       = 1000
		theta   = 0.99
		samples = 400000
	)
	z := newZipfian(n, theta, false)
	r := rand.New(rand.NewSource(1))
	counts := make([]int, n)
	for i := 0; i < samples; i++ {
		counts[z.pick(r)]++
	}
	// Ranks 0 and 1 are mapped exactly by the quantile method; later
	// ranks carry its known discretization bias, so they get a looser
	// tolerance, with the aggregate head mass held tight.
	var gotHead, wantHead float64
	for k := 0; k < 10; k++ {
		got := float64(counts[k]) / samples
		want := z.probability(k)
		gotHead, wantHead = gotHead+got, wantHead+want
		tol := 0.10
		if k >= 2 {
			tol = 0.25
		}
		if rel := (got - want) / want; rel < -tol || rel > tol {
			t.Errorf("rank %d: frequency %.5f vs theoretical %.5f (%.1f%% off)",
				k, got, want, 100*rel)
		}
	}
	if rel := (gotHead - wantHead) / wantHead; rel < -0.10 || rel > 0.10 {
		t.Errorf("top-10 mass %.4f vs theoretical %.4f (%.1f%% off)", gotHead, wantHead, 100*rel)
	}
	// The tail must still be covered: at least half the ranks drawn once.
	drawn := 0
	for _, c := range counts {
		if c > 0 {
			drawn++
		}
	}
	if drawn < n/2 {
		t.Errorf("only %d of %d ranks ever drawn", drawn, n)
	}
}

func TestZipfianScrambleStaysInRange(t *testing.T) {
	z := newZipfian(37, 0.99, true)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		if p := z.pick(r); p >= 37 {
			t.Fatalf("scrambled pick %d out of range", p)
		}
	}
}

func pageProfile(txns int, seed int64) Profile {
	return Profile{
		Mode:           trace.ModePage,
		Streams:        4,
		Transactions:   txns,
		PagesPerTx:     6,
		UpdateFraction: 0.8,
		UpdateProb:     0.9,
		AbortProb:      0.02,
		Hot:            0.5,
		Window:         32,
		NumPages:       128,
		PageSize:       128,
		Seed:           seed,
	}
}

// TestGenerateDeterministic: the same (spec, profile) must produce
// byte-identical traces — generation is a pure function of its inputs.
func TestGenerateDeterministic(t *testing.T) {
	for _, spec := range []string{"uniform", "zipfian:theta=0.9", "scan", "banking:accounts=50"} {
		gen := func() []byte {
			prof, pl, err := FromSpec(spec, pageProfile(200, 11))
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			tr, err := Generate(prof, pl)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			return tr.Encode()
		}
		if !bytes.Equal(gen(), gen()) {
			t.Errorf("%s: two generations differ", spec)
		}
	}
}

// TestGenerateConflictFree: at no point in a generated trace do two
// streams hold the same page — the invariant that makes single-threaded
// replay equivalent to the planned concurrent interleaving.
func TestGenerateConflictFree(t *testing.T) {
	prof, pl, err := FromSpec("zipfian:theta=0.99,streams=6", pageProfile(400, 3))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Generate(prof, pl)
	if err != nil {
		t.Fatal(err)
	}
	holder := map[uint32]uint8{} // page -> stream holding it
	open := map[uint8]map[uint32]bool{}
	for i, op := range tr.Ops {
		switch {
		case op.Kind == trace.OpBegin:
			open[op.Stream] = map[uint32]bool{}
		case op.Kind.IsEOT():
			for p := range open[op.Stream] {
				delete(holder, p)
			}
			delete(open, op.Stream)
		default:
			if s, held := holder[op.Page]; held && s != op.Stream {
				t.Fatalf("op %d: stream %d touches page %d held by stream %d",
					i, op.Stream, op.Page, s)
			}
			holder[op.Page] = op.Stream
			open[op.Stream][op.Page] = true
		}
	}
}

// TestBankingConservation replays a generated banking workload and
// checks the invariant the generator promises: the total balance is
// conserved and every account matches the generator's book.
func TestBankingConservation(t *testing.T) {
	prof := pageProfile(300, 21)
	prof.Mode = trace.ModeRecord
	prof.RecordSize = 16
	bank, err := NewBanking(prof, 80, 500, 50)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Generate(prof, bank)
	if err != nil {
		t.Fatal(err)
	}

	cfg := rda.DefaultConfig()
	cfg.DataDisks = 4
	cfg.BufferFrames = 24
	cfg.EOT = rda.NoForce
	db, err := rda.Open(tr.Config(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Replay(db, tr, trace.Options{}); err != nil {
		t.Fatal(err)
	}

	total, err := bank.TotalIn(db)
	if err != nil {
		t.Fatal(err)
	}
	if want := bank.ExpectedTotal(); total != want {
		t.Fatalf("total balance %d, want %d", total, want)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort() //nolint:errcheck
	for a, want := range bank.Balances() {
		got, err := bank.BalanceIn(tx, a)
		if err != nil {
			t.Fatalf("account %d: %v", a, err)
		}
		if got != want {
			t.Fatalf("account %d: balance %d, book says %d", a, got, want)
		}
	}
}

// TestBankingConservationSurvivesCrash: crash-at-end recovery rolls the
// open transfers back, so the sum is still conserved (individual
// balances may lag the book by the rolled-back losers).
func TestBankingConservationSurvivesCrash(t *testing.T) {
	prof := pageProfile(200, 5)
	prof.Mode = trace.ModeRecord
	prof.RecordSize = 16
	bank, err := NewBanking(prof, 60, 500, 50)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Generate(prof, bank)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rda.DefaultConfig()
	cfg.DataDisks = 4
	cfg.BufferFrames = 24
	db, err := rda.Open(tr.Config(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Replay(db, tr, trace.Options{CrashAtEnd: true}); err != nil {
		t.Fatal(err)
	}
	total, err := bank.TotalIn(db)
	if err != nil {
		t.Fatal(err)
	}
	if want := bank.ExpectedTotal(); total != want {
		t.Fatalf("total balance after crash %d, want %d", total, want)
	}
}

func TestFromSpecErrors(t *testing.T) {
	base := pageProfile(10, 1)
	for _, spec := range []string{
		"", "nosuch", "zipfian:theta=2", "zipfian:nope=1",
		"uniform:s=x", "banking:accounts=1",
		// Out of range: probabilities outside [0,1], negative counts.
		"uniform:fu=1.5", "uniform:pu=-0.1", "uniform:pb=2", "uniform:hot=1.01",
		"uniform:hot=NaN", "zipfian:theta=NaN", "uniform:s=-3", "uniform:streams=-1",
		"uniform:streams=256", "scan:fu=-1", "banking:initial=0", "banking:maxtransfer=-5",
	} {
		if _, _, err := FromSpec(spec, base); err == nil {
			t.Errorf("FromSpec(%q): expected error", spec)
		}
	}
	// Zero keeps meaning "default".
	prof, _, err := FromSpec("uniform:s=0,streams=0", base)
	if err != nil {
		t.Fatal(err)
	}
	if prof.PagesPerTx != 8 || prof.Streams != 1 {
		t.Fatalf("zero counts: s=%d streams=%d, want the defaults 8 and 1", prof.PagesPerTx, prof.Streams)
	}
}

// FuzzFromSpec: no spec string makes FromSpec panic, and every spec it
// accepts generates a trace.
func FuzzFromSpec(f *testing.F) {
	for _, seed := range []string{
		"uniform", "uniform:hot=0.6", "zipfian:theta=0.99,s=8", "banking:accounts=40,pb=0.02", "scan:fu=0.1",
		// The benchmark's specs.
		"uniform:s=10,fu=0.8,pu=0.9,pb=0.01,hot=0.5",
		"zipfian:s=40,fu=0.1,pu=0.3,pb=0.01,hot=0.8,theta=0.9",
		"uniform:s=10,fu=1,pu=0.7,pb=0.01,hot=0.5",
		"uniform:streams=6,s=10,fu=0.8,pu=0.9,pb=0.01,hot=0.9",
	} {
		f.Add(seed)
	}
	base := pageProfile(20, 1)
	f.Fuzz(func(t *testing.T, spec string) {
		prof, pl, err := FromSpec(spec, base)
		if err != nil {
			return
		}
		// Bound the work, not the input: a huge txns or s is a valid spec
		// whose trace is merely long.
		if int64(prof.Transactions)*int64(prof.PagesPerTx) > 1<<14 {
			t.Skip("trace too long to generate in a fuzz iteration")
		}
		if _, err := Generate(prof, pl); err != nil {
			t.Fatalf("FromSpec(%q) accepted a spec Generate rejects: %v", spec, err)
		}
	})
}

func TestFromSpecOverrides(t *testing.T) {
	prof, pl, err := FromSpec("uniform:s=3,fu=0.5,streams=2,txns=42", pageProfile(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if prof.PagesPerTx != 3 || prof.UpdateFraction != 0.5 || prof.Streams != 2 || prof.Transactions != 42 {
		t.Fatalf("overrides not applied: %+v", prof)
	}
	if pl.Name() != "uniform:s=3,fu=0.5,streams=2,txns=42" {
		t.Fatalf("planner name %q", pl.Name())
	}
}

// TestSourceStreams: named substreams of one source are stable and
// distinct.
func TestSourceStreams(t *testing.T) {
	s1, s2 := NewSource(42), NewSource(42)
	if s1.Stream("workload") != s2.Stream("workload") {
		t.Error("same seed, same name: streams differ")
	}
	if s1.Stream("workload") == s1.Stream("fault") {
		t.Error("different names collide")
	}
	if NewSource(1).Stream("workload") == NewSource(2).Stream("workload") {
		t.Error("different seeds collide")
	}
}
