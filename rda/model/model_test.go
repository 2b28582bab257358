package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func near(got, want, relTol float64) bool {
	if want == 0 {
		return math.Abs(got) < relTol
	}
	return math.Abs(got-want)/math.Abs(want) <= relTol
}

// TestLoggingProbabilityEq5 cross-checks Equation 5 against a Monte
// Carlo estimate: throw K random pages at S pages grouped in N and count
// how many land in a group that already holds one of the K (those are
// the ones that must be logged).
func TestLoggingProbabilityEq5(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const S, N = 5000, 10
	for _, K := range []int{5, 22, 80, 300} {
		const trials = 3000
		logged := 0
		for tr := 0; tr < trials; tr++ {
			groups := make(map[int]int)
			for i := 0; i < K; i++ {
				groups[r.Intn(S)/N]++
			}
			covered := len(groups) // one free page per touched group
			logged += K - covered
		}
		est := float64(logged) / float64(K*trials)
		got := LoggingProbability(S, N, float64(K))
		if !near(got, est, 0.12) && math.Abs(got-est) > 0.01 {
			t.Errorf("K=%d: Eq5 p_l=%.4f, Monte Carlo %.4f", K, got, est)
		}
	}
}

func TestLoggingProbabilityBounds(t *testing.T) {
	f := func(kRaw uint16) bool {
		k := float64(kRaw%2000) + 1
		pl := LoggingProbability(5000, 10, k)
		return pl >= 0 && pl <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if LoggingProbability(5000, 10, 0) != 0 {
		t.Fatalf("K=0 must never log")
	}
	// Monotone in K: more uncommitted pages, more collisions.
	prev := 0.0
	for k := 1.0; k < 500; k *= 2 {
		pl := LoggingProbability(5000, 10, k)
		if pl < prev {
			t.Fatalf("p_l not monotone at K=%v", k)
		}
		prev = pl
	}
}

// TestSharedUpdatedPagesAppendix checks the closed form against the
// appendix recurrence S(k) − S(k−1) = s·p_u·(1 − C·S(k−1)/B).
func TestSharedUpdatedPagesAppendix(t *testing.T) {
	const B = 300
	for _, tc := range []struct {
		c, s, pu float64
		k        int
	}{
		{0.5, 10, 0.9, 5},
		{0.9, 10, 0.9, 4},
		{0.3, 40, 0.3, 3},
		{0.0, 10, 0.5, 6},
	} {
		sk := tc.s * tc.pu // S(1)
		for k := 2; k <= tc.k; k++ {
			sk += tc.s * tc.pu * (1 - tc.c*sk/B)
		}
		got := SharedUpdatedPages(B, tc.c, tc.s, tc.pu, float64(tc.k))
		// The closed form B(1−(1−C·s·p_u/B)^k) solves the recurrence
		// only approximately for C<1 (the paper derives it as such); they
		// agree tightly for the paper's parameter ranges.
		if tc.c > 0 && !near(got, sk, 0.05) {
			t.Errorf("%+v: closed form %.2f vs recurrence %.2f", tc, got, sk)
		}
		if tc.c == 0 && !near(got, sk, 1e-9) {
			// With C=0 there is no sharing... the closed form degenerates
			// to k·s·p_u, exactly the recurrence.
			t.Errorf("C=0: closed form %.2f vs recurrence %.2f", got, sk)
		}
	}
}

func TestProbabilityHelpersBounds(t *testing.T) {
	f := func(cRaw, fuRaw, puRaw uint8) bool {
		c := float64(cRaw%100) / 100
		fu := float64(fuRaw%101) / 100
		pu := float64(puRaw%101) / 100
		pm := ModifiedProbability(fu, pu, c)
		ps := StealProbability(300, c, 10, 6)
		return pm >= 0 && pm <= 1 && ps >= 0 && ps <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAvgLogEntryLen(t *testing.T) {
	p := HighUpdate()
	// L = (3·100 + 7·10)/10 = 37 for the high-update environment.
	if got := AvgLogEntryLen(p); !near(got, 37, 1e-9) {
		t.Fatalf("L = %v, want 37", got)
	}
}

// --- Pinning the paper's published Figure 9–13 values ---------------------

// TestFigure9MatchesPaper pins the model to the values the paper prints
// on Figure 9's axes and in its text: high-update throughput without RDA
// at C=0 is ≈48,800 transactions per interval, high-retrieval ≈91,800,
// and the RDA improvement at C=0.9 high-update is "about 42%".
func TestFigure9MatchesPaper(t *testing.T) {
	hu := PageForceTOC(HighUpdate().WithCommunality(0), false)
	if !near(hu.Throughput, 48800, 0.02) {
		t.Errorf("high-update C=0 ¬RDA throughput = %.0f, paper ≈48800", hu.Throughput)
	}
	hr := PageForceTOC(HighRetrieval().WithCommunality(0), false)
	if !near(hr.Throughput, 91800, 0.02) {
		t.Errorf("high-retrieval C=0 ¬RDA throughput = %.0f, paper ≈91800", hr.Throughput)
	}
	no := PageForceTOC(HighUpdate().WithCommunality(0.9), false).Throughput
	yes := PageForceTOC(HighUpdate().WithCommunality(0.9), true).Throughput
	gain := 100 * (yes - no) / no
	if gain < 38 || gain > 47 {
		t.Errorf("C=0.9 high-update RDA gain = %.1f%%, paper ≈42%%", gain)
	}
	// RDA wins everywhere and the gap widens with C.
	prevGain := -1.0
	for _, c := range DefaultCommunalities {
		n := PageForceTOC(HighUpdate().WithCommunality(c), false).Throughput
		y := PageForceTOC(HighUpdate().WithCommunality(c), true).Throughput
		if y <= n {
			t.Errorf("C=%.1f: RDA must win (got %.0f vs %.0f)", c, y, n)
		}
		g := (y - n) / n
		if g < prevGain {
			t.Errorf("C=%.1f: RDA gain must widen with communality", c)
		}
		prevGain = g
	}
}

// TestPageForceTOCNoAfterImagesDropsOneTerm pins the engine's FORCE/TOC
// variant to the paper's formula: c_l minus the after-image term 4·s·p_u,
// with and without RDA, every other cost unchanged, and so a higher
// throughput.  Written out, the variant's c_l is 3·s·p_u + 4·s·p_u + 16
// without RDA and (3 + 2p_l)·s·p_u + 4·(s·p_u·p_l + 4) + 4·(p_l − p_l^{s·p_u})
// with it.
func TestPageForceTOCNoAfterImagesDropsOneTerm(t *testing.T) {
	for _, base := range []Params{HighUpdate(), HighRetrieval()} {
		for _, c := range DefaultCommunalities {
			p := base.WithCommunality(c)
			s, pu := p.PagesPerTx, p.UpdateProb
			for _, rda := range []bool{false, true} {
				paper, engine := PageForceTOC(p, rda), PageForceTOCNoAfterImages(p, rda)
				if !near(engine.CL, paper.CL-4*s*pu, 1e-12) {
					t.Errorf("C=%.1f rda=%v: c_l = %.4f, paper's %.4f − 4·s·p_u = %.4f", c, rda, engine.CL, paper.CL, paper.CL-4*s*pu)
				}
				want := 3*s*pu + 4*s*pu + 16
				if rda {
					pl := engine.Pl
					want = (3+2*pl)*s*pu + 4*(s*pu*pl+4) + 4*(pl-math.Pow(pl, s*pu))
				}
				if !near(engine.CL, want, 1e-12) {
					t.Errorf("C=%.1f rda=%v: c_l = %.4f, written out %.4f", c, rda, engine.CL, want)
				}
				if engine.CR != paper.CR || engine.CB != paper.CB || engine.CS != paper.CS || engine.Pl != paper.Pl {
					t.Errorf("C=%.1f rda=%v: a cost other than c_l moved: %+v vs %+v", c, rda, engine, paper)
				}
				if !near(engine.CU, paper.CU-4*s*pu, 1e-12) || engine.Throughput <= paper.Throughput {
					t.Errorf("C=%.1f rda=%v: c_u %.4f → %.4f, throughput %.0f → %.0f", c, rda, paper.CU, engine.CU, paper.Throughput, engine.Throughput)
				}
			}
		}
	}
}

// TestFigure10MatchesPaper pins the two qualitative results the paper
// states for Figure 10: without RDA recovery the ¬FORCE/ACC algorithm
// outperforms FORCE/TOC, but WITH RDA recovery the situation is reversed
// — FORCE/TOC+RDA wins "by a significant margin" — and the RDA gain for
// ¬FORCE/ACC itself is not significant.  The C=0 high-update axis value
// (≈47,800) is pinned too.
func TestFigure10MatchesPaper(t *testing.T) {
	if got := PageNoForceACC(HighUpdate().WithCommunality(0), false).Throughput; !near(got, 47800, 0.02) {
		t.Errorf("high-update C=0 ¬RDA throughput = %.0f, paper ≈47800", got)
	}
	for _, c := range DefaultCommunalities[3:] { // the effect holds at moderate+ C
		hu := HighUpdate().WithCommunality(c)
		forceNo := PageForceTOC(hu, false).Throughput
		noforceNo := PageNoForceACC(hu, false).Throughput
		forceRDA := PageForceTOC(hu, true).Throughput
		noforceRDA := PageNoForceACC(hu, true).Throughput
		if noforceNo <= forceNo {
			t.Errorf("C=%.1f: without RDA, ¬FORCE/ACC must beat FORCE/TOC (%.0f vs %.0f)", c, noforceNo, forceNo)
		}
		if forceRDA <= noforceRDA {
			t.Errorf("C=%.1f: with RDA, FORCE/TOC must beat ¬FORCE/ACC (%.0f vs %.0f)", c, forceRDA, noforceRDA)
		}
		gain := (noforceRDA - noforceNo) / noforceNo
		if gain > 0.10 {
			t.Errorf("C=%.1f: ¬FORCE RDA gain %.1f%% should be insignificant (<10%%)", c, 100*gain)
		}
	}
}

// TestFigure11MatchesPaper pins the record-logging FORCE/TOC range to
// the paper's Figure 11 high-update axis (≈150,600 at the bottom).
func TestFigure11MatchesPaper(t *testing.T) {
	if got := RecordForceTOC(HighUpdate().WithCommunality(0), false).Throughput; !near(got, 150600, 0.02) {
		t.Errorf("high-update C=0 ¬RDA throughput = %.0f, paper ≈150600", got)
	}
	// RDA still wins, modestly.
	for _, c := range DefaultCommunalities {
		hu := HighUpdate().WithCommunality(c)
		no := RecordForceTOC(hu, false).Throughput
		yes := RecordForceTOC(hu, true).Throughput
		if yes <= no {
			t.Errorf("C=%.1f: RDA must not lose (%.0f vs %.0f)", c, yes, no)
		}
	}
}

// TestFigure12MatchesPaper pins the paper's statement that for record
// logging ¬FORCE/ACC "for C = 0.9 the increase in throughput is about
// 14%", and that ¬FORCE/ACC remains the best record-logging algorithm.
func TestFigure12MatchesPaper(t *testing.T) {
	hu := HighUpdate().WithCommunality(0.9)
	no := RecordNoForceACC(hu, false).Throughput
	yes := RecordNoForceACC(hu, true).Throughput
	gain := 100 * (yes - no) / no
	if gain < 10 || gain > 18 {
		t.Errorf("C=0.9 record ¬FORCE RDA gain = %.1f%%, paper ≈14%%", gain)
	}
	// Conclusions: in the record logging case ¬FORCE/ACC performs best.
	for _, c := range []float64{0.5, 0.7, 0.9} {
		p := HighUpdate().WithCommunality(c)
		if RecordNoForceACC(p, true).Throughput <= RecordForceTOC(p, true).Throughput {
			t.Errorf("C=%.1f: record ¬FORCE/ACC+RDA must beat FORCE/TOC+RDA", c)
		}
	}
}

// TestFigure13MatchesPaper pins the paper's Figure 13: the RDA benefit
// for record logging ¬FORCE/ACC (high update, C=0.9) grows from ≈6% at
// s=5 to ≈70% at s=45, monotonically.
func TestFigure13MatchesPaper(t *testing.T) {
	series := Figure13(DefaultSizes)
	first := series.Points[0]
	last := series.Points[len(series.Points)-1]
	if first.GainPct < 3 || first.GainPct > 10 {
		t.Errorf("s=5 gain = %.1f%%, paper ≈6%%", first.GainPct)
	}
	if last.GainPct < 50 || last.GainPct > 80 {
		t.Errorf("s=45 gain = %.1f%%, paper ≈70%%", last.GainPct)
	}
	prev := -1.0
	for _, pt := range series.Points {
		if pt.GainPct < prev {
			t.Errorf("s=%.0f: Figure 13 must be monotone increasing", pt.X)
		}
		prev = pt.GainPct
	}
}

// TestOptimalInterval sanity-checks the ACC interval optimization: the
// optimum is interior (not a bracket endpoint) and beats both a tiny and
// a huge interval.
func TestOptimalInterval(t *testing.T) {
	p := HighUpdate().WithCommunality(0.5)
	res := PageNoForceACC(p, false)
	if res.Interval <= 100 || res.Interval >= p.T/2 {
		t.Fatalf("optimal interval %v looks degenerate", res.Interval)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput must be positive")
	}
	// Perturbing the interval must not improve throughput.
	rt := func(i float64) float64 {
		cs := (i/res.CT/2)*p.UpdateFraction*(res.CL/4+4*p.PagesPerTx*p.UpdateProb) +
			float64(p.P)*p.UpdateFraction*(res.CL/4+4*p.PagesPerTx*p.UpdateProb)
		return (p.T - cs - res.CC*(p.T-cs-i/2)/i) / res.CT
	}
	for _, factor := range []float64{0.25, 4} {
		if rt(res.Interval*factor) > res.Throughput*1.0001 {
			t.Errorf("interval %v×%.2f beats the chosen optimum", res.Interval, factor)
		}
	}
}

// TestEvaluateDispatch exercises the Algorithm dispatcher.
func TestEvaluateDispatch(t *testing.T) {
	p := HighUpdate().WithCommunality(0.5)
	for _, a := range []Algorithm{AlgoPageForceTOC, AlgoPageNoForceACC, AlgoRecordForceTOC, AlgoRecordNoForceACC} {
		for _, rda := range []bool{false, true} {
			res := Evaluate(a, p, rda)
			if res.Throughput <= 0 || math.IsNaN(res.Throughput) {
				t.Errorf("%v rda=%v: throughput %v", a, rda, res.Throughput)
			}
			if res.CT <= 0 || res.CL <= 0 {
				t.Errorf("%v rda=%v: degenerate costs %+v", a, rda, res)
			}
		}
		if a.String() == "unknown" {
			t.Errorf("missing String case for %d", a)
		}
	}
}

// TestStorageOverheadClaim checks Section 6's storage statement: the
// extra storage for the parity information is about (100/N)% of the
// database per parity copy.
func TestStorageOverheadClaim(t *testing.T) {
	for _, n := range []int{5, 10, 20} {
		perCopy := 100.0 / float64(n)
		// One parity page per N data pages = (100/N)% of the data.
		if !near(perCopy, 100/float64(n), 1e-12) {
			t.Fatalf("arithmetic identity failed (n=%d)", n)
		}
	}
}

// TestSweepNTradeoff checks the group-width ablation: widening the
// parity groups lowers storage overhead but raises Equation 5's p_l and
// erodes the RDA gain, monotonically.  N=1 (mirrored pairs / twin-page
// storage) gives the largest gain at the largest overhead.
func TestSweepNTradeoff(t *testing.T) {
	pts := SweepN(DefaultWidths, 0.9)
	for i := 1; i < len(pts); i++ {
		if pts[i].GainPct > pts[i-1].GainPct {
			t.Errorf("N=%d: gain must not grow with group width", pts[i].N)
		}
		if pts[i].OverheadPct >= pts[i-1].OverheadPct {
			t.Errorf("N=%d: overhead must shrink with group width", pts[i].N)
		}
		if pts[i].Pl < pts[i-1].Pl {
			t.Errorf("N=%d: p_l must grow with group width", pts[i].N)
		}
	}
	// The paper's N=10 keeps most of the N=1 gain at a tenth of the
	// overhead — the design point's justification.
	var n1, n10 NSweepPoint
	for _, pt := range pts {
		if pt.N == 1 {
			n1 = pt
		}
		if pt.N == 10 {
			n10 = pt
		}
	}
	if n10.GainPct < 0.9*n1.GainPct {
		t.Errorf("N=10 gain %.1f%% lost too much of N=1's %.1f%%", n10.GainPct, n1.GainPct)
	}
}

// TestOptimalIntervalClosedForm confirms that Equation 1's closed-form
// optimum matches the golden-section optimum the evaluators use, for
// both environments and both algorithms, with and without RDA.
func TestOptimalIntervalClosedForm(t *testing.T) {
	for _, env := range []Params{HighUpdate(), HighRetrieval()} {
		for _, c := range []float64{0.2, 0.5, 0.8} {
			p := env.WithCommunality(c)
			for _, algo := range []Algorithm{AlgoPageNoForceACC, AlgoRecordNoForceACC} {
				for _, rda := range []bool{false, true} {
					res := Evaluate(algo, p, rda)
					// β: the interval-independent crash-cost part.
					Pfu := float64(p.P) * p.UpdateFraction
					beta := Pfu * (res.CL/4 + 4*p.PagesPerTx*p.UpdateProb)
					if rda {
						beta += float64(p.S) / float64(p.N)
					}
					closed := OptimalInterval(p, res.CT, res.CC, res.CL, beta)
					if !near(closed, res.Interval, 0.02) {
						t.Errorf("%v rda=%v C=%.1f: closed form I*=%.0f vs numeric %.0f",
							algo, rda, c, closed, res.Interval)
					}
				}
			}
		}
	}
}
