// Package model implements the paper's analytical performance model
// (Section 5 and the Appendix), which extends Reuter's 1984 recovery
// performance model [14].
//
// The model measures every cost in page transfers and evaluates, for a
// set of P concurrently executing transactions, the throughput
//
//	r_t = (T − c_s − c_c·(T − c_s − I/2)/I) / c_t
//
// in transactions per availability interval of T page transfers, where
// c_t is the expected cost of one transaction, c_s the cost of crash
// recovery, c_c the cost of taking a checkpoint and I the checkpointing
// interval (FORCE/TOC algorithms have c_c = 0 and no interval).
//
// Four algorithm families are modelled, each with and without RDA
// recovery:
//
//	PageForceTOC      — Section 5.2.1 (¬ATOMIC, STEAL, FORCE, TOC);
//	                    PageForceTOCNoAfterImages is its c_l as the
//	                    engine runs it, without after-images
//	PageNoForceACC    — Section 5.2.2 (¬ATOMIC, STEAL, ¬FORCE, ACC)
//	RecordForceTOC    — Section 5.3.1 (record logging/locking, FORCE)
//	RecordNoForceACC  — Section 5.3.2 (record logging/locking, ¬FORCE)
//
// # Fidelity notes
//
// The only machine-readable copy of the paper available to this
// reproduction is an OCR scan whose equations are damaged in places.
// Every formula below is annotated with its provenance:
//
//   - "verbatim" — recovered cleanly from the text;
//   - "reconstructed" — rebuilt from the paper's verbal description of
//     the terms, and validated against the printed results: the
//     PageForceTOC evaluator reproduces the paper's published axis
//     values for Figure 9 (≈48.8k tx/interval at C=0 high-update without
//     RDA; ≈42% RDA gain at C=0.9) to within a fraction of a percent.
//
// EXPERIMENTS.md records the full paper-vs-model comparison.
package model

import (
	"math"
)

// Params are the model's workload and system parameters (Section 5,
// "Performance Analysis"; values from [14] where the paper says so).
type Params struct {
	// B is the database buffer size in pages.
	B int
	// S is the database size in pages.
	S int
	// N is the parity group width (data pages per parity page).
	N int
	// P is the number of concurrently executing transactions.
	P int
	// T is the availability interval in page transfers.
	T float64
	// PagesPerTx is s: database calls (page requests) per transaction.
	PagesPerTx float64
	// UpdateFraction is f_u: the fraction of update transactions.
	UpdateFraction float64
	// UpdateProb is p_u: the probability an accessed page is modified
	// (update transactions only).
	UpdateProb float64
	// AbortProb is p_b: the probability a transaction aborts.
	AbortProb float64
	// Communality is C: the probability a requested page is found in the
	// buffer.
	Communality float64

	// Record-logging parameters (Section 5.3).
	// UpdateStatements is d: update statements per transaction.
	UpdateStatements float64
	// RecordLen is r: average record length in bytes.
	RecordLen float64
	// ShortEntryLen is e: average length of a short log entry.
	ShortEntryLen float64
	// BOTLen is l_bc: the length of a BOT or EOT record.
	BOTLen float64
	// LogPageLen is l_p: the physical log page length.
	LogPageLen float64
	// ChainHeaderLen is l_h: the log chain header length.
	ChainHeaderLen float64
}

// HighUpdate returns the paper's high update frequency environment
// (Section 5.2.1: B=300, S=5000, N=10, P=6, p_b=0.01, T=5·10⁶;
// s=10, f_u=0.8, p_u=0.9; record logging d=3, r=100, e=10, l_bc=16,
// l_p=2020, l_h=4).
func HighUpdate() Params {
	return Params{
		B: 300, S: 5000, N: 10, P: 6, T: 5e6,
		PagesPerTx: 10, UpdateFraction: 0.8, UpdateProb: 0.9, AbortProb: 0.01,
		UpdateStatements: 3, RecordLen: 100, ShortEntryLen: 10,
		BOTLen: 16, LogPageLen: 2020, ChainHeaderLen: 4,
	}
}

// HighRetrieval returns the paper's high retrieval frequency environment
// (s=40, f_u=0.1, p_u=0.3; record logging d=8).
func HighRetrieval() Params {
	p := HighUpdate()
	p.PagesPerTx = 40
	p.UpdateFraction = 0.1
	p.UpdateProb = 0.3
	p.UpdateStatements = 8
	return p
}

// WithCommunality returns a copy with C set.
func (p Params) WithCommunality(c float64) Params {
	p.Communality = c
	return p
}

// LoggingProbability is Equation 5 (verbatim): the probability that one
// of K uncommitted modified pages, randomly spread over a database of S
// pages in groups of N, must be UNDO-logged when written back — because
// only one page per parity group may rely on twin-parity undo:
//
//	E[X] = (S/N)·(1 − (1 − N/S)^K)
//	p_l  = 1 − E[X]/K
func LoggingProbability(S, N int, K float64) float64 {
	if K <= 0 {
		return 0
	}
	groups := float64(S) / float64(N)
	ex := groups * (1 - math.Pow(1-float64(N)/float64(S), K))
	pl := 1 - ex/K
	if pl < 0 {
		return 0
	}
	if pl > 1 {
		return 1
	}
	return pl
}

// ModifiedProbability is p_m (Section 5.2.2, verbatim): the probability
// that a page being replaced from the buffer is modified, given that a
// page's buffer residence sees a geometric number of re-references with
// parameter C:
//
//	p_m = 1 − (1 − f_u·p_u)^{1/(1−C)}
func ModifiedProbability(fu, pu, c float64) float64 {
	if c >= 1 {
		return 1
	}
	return 1 - math.Pow(1-fu*pu, 1/(1-c))
}

// StealProbability is p_s (Section 5.2.2, verbatim): the probability
// that a given modified page is stolen from the buffer before EOT, under
// pressure from the other P−1 transactions' (1−C)·s replacement-causing
// references:
//
//	p_s = 1 − (1 − 1/(B − C·s))^{(1−C)·s·(P−1)}
func StealProbability(B int, c, s float64, P int) float64 {
	denom := float64(B) - c*s
	if denom <= 1 {
		return 1
	}
	return 1 - math.Pow(1-1/denom, (1-c)*s*float64(P-1))
}

// SharedUpdatedPages is s_u (Appendix): the expected number of distinct
// pages in the buffer updated by a set of `concurrent` update
// transactions, each modifying s·p_u pages, with sharing driven by the
// communality C.  It is the exact solution of the appendix recurrence
// S(k) − S(k−1) = s·p_u·(1 − C·S(k−1)/B), S(0)=0:
//
//	s_u = (B/C)·(1 − (1 − C·s·p_u/B)^{concurrent})
//
// which degenerates to concurrent·s·p_u as C→0 (no sharing) and is
// capped at the buffer size.
func SharedUpdatedPages(B int, c, s, pu float64, concurrent float64) float64 {
	a := s * pu
	if c <= 0 {
		return math.Min(a*concurrent, float64(B))
	}
	su := (float64(B) / c) * (1 - math.Pow(1-c*a/float64(B), concurrent))
	return math.Min(su, float64(B))
}

// AvgLogEntryLen is L (Section 5.3, verbatim): the average log entry
// length when each of the d update statements writes one long entry and
// the other s−d statements write short ones:
//
//	L = (d·r + (s−d)·e)/s
func AvgLogEntryLen(p Params) float64 {
	s := p.PagesPerTx
	return (p.UpdateStatements*p.RecordLen + (s-p.UpdateStatements)*p.ShortEntryLen) / s
}

// Result carries a model evaluation.
type Result struct {
	// Throughput is r_t: transactions per availability interval.
	Throughput float64
	// Cost components, in page transfers.
	CT float64 // expected cost per transaction
	CR float64 // retrieval transaction cost
	CU float64 // update transaction cost
	CL float64 // logging cost per update transaction
	CB float64 // rollback cost
	CC float64 // checkpoint cost (¬FORCE only)
	CS float64 // crash recovery cost
	// Derived probabilities.
	Pl float64 // logging probability (Eq 5); 0 without RDA
	Pm float64 // probability a replaced page is modified
	Ps float64 // probability a modified page is stolen before EOT
	// Interval is the optimal checkpointing interval in page transfers
	// (¬FORCE only).
	Interval float64
}

// throughputTOC is r_t for FORCE/TOC: no checkpoints (c_c = 0).
func throughputTOC(p Params, ct, cs float64) float64 {
	return (p.T - cs) / ct
}

// OptimalInterval is the closed-form solution of the paper's Equation 1
// for the ¬FORCE/ACC algorithms, where the crash recovery cost is linear
// in the interval, c_s(I) = α·I + β with α = f_u·(c_l/4 + 4·s·p_u)/(2·c_t)
// (the r_c/2 redo term) and β the interval-independent part:
//
//	d r_t/dI = 0  ⇒  I* = sqrt( c_c·(T − β) / α )
//
// The evaluators use the numeric optimum (exact for any c_s shape);
// TestOptimalIntervalClosedForm confirms the two agree.
func OptimalInterval(p Params, ct, cc, cl, beta float64) float64 {
	alpha := p.UpdateFraction * (cl/4 + 4*p.PagesPerTx*p.UpdateProb) / (2 * ct)
	if alpha <= 0 || p.T <= beta {
		return p.T
	}
	return math.Sqrt(cc * (p.T - beta) / alpha)
}

// throughputACC maximizes r_t over the checkpoint interval I
// numerically (the paper derives the optimum from Equation 1; the
// numeric optimum is used here because it is exact for any c_s(I)
// shape).  csOf maps the interval to the crash recovery cost through
// r_c = I/c_t.
func throughputACC(p Params, ct, cc float64, csOf func(rc float64) float64) (rt, bestI, cs float64) {
	eval := func(i float64) (float64, float64) {
		c := csOf(i / ct)
		r := (p.T - c - cc*(p.T-c-i/2)/i) / ct
		return r, c
	}
	// Golden-section search on a log-spaced bracket.
	lo, hi := 10.0, p.T
	const phi = 0.6180339887498949
	a, b := lo, hi
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, _ := eval(x1)
	f2, _ := eval(x2)
	for i := 0; i < 200 && b-a > 1; i++ {
		if f1 < f2 {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			f2, _ = eval(x2)
		} else {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			f1, _ = eval(x1)
		}
	}
	bestI = (a + b) / 2
	rt, cs = eval(bestI)
	return rt, bestI, cs
}

// --- Section 5.2.1: page logging, ¬ATOMIC, STEAL, FORCE, TOC --------------

// PageForceTOC evaluates the page logging FORCE/TOC algorithm
// (Section 5.2.1), with or without RDA recovery.
//
// Without RDA (reconstructed; validated against Figure 9's printed
// values):
//
//	c_l = 3·s·p_u + 4·(2·s·p_u) + 4·4
//
// (write modified pages back at a=3; before- and after-images to the
// UNDO and REDO logs at 4 per page; BOT and EOT to each log file).
//
// With RDA (verbatim):
//
//	c_l′ = (3 + 2p_l)·s·p_u + 4·(s·p_u + s·p_u·p_l + 4) + 4·(p_l − p_l^{s·p_u})
//
// with K = P·f_u·s·p_u/2 in Equation 5.
func PageForceTOC(p Params, rda bool) Result { return pageForceTOC(p, rda, true) }

// PageForceTOCNoAfterImages is PageForceTOC as the engine runs it: c_l
// without the after-image term 4·s·p_u, with or without RDA recovery.  A
// FORCE commit's pages are on disk before its EOT, so no REDO needs their
// after-images, and the array's redundancy is the media-recovery copy
// (the engine still logs them for a group that has lost a block, which
// the model's fault-free interval never sees).  Figures 9 and 11 keep the
// paper's formulas; the model-vs-measured sweep compares against this.
func PageForceTOCNoAfterImages(p Params, rda bool) Result { return pageForceTOC(p, rda, false) }

func pageForceTOC(p Params, rda, afterImages bool) Result {
	s, fu, pu, pb := p.PagesPerTx, p.UpdateFraction, p.UpdateProb, p.AbortProb
	c := p.Communality
	Pfu := float64(p.P) * fu
	var res Result

	cr := s * (1 - c) // p_m = 0: all write-back cost is in c_l

	var cl, cb, cs float64
	if !rda {
		cl = 3*s*pu + 4*(2*s*pu) + 16
		// c_b (reconstructed from the verbal term list): read the log
		// back to the BOT — the concurrent update transactions are
		// halfway done — then write the before-images back and log the
		// rollback record.
		cb = (s*pu/2)*Pfu + Pfu + 4*(s*pu/2) + 4
		// c_s (reconstructed): redo/undo the P·f_u interrupted update
		// transactions: read their log records plus brackets, write back
		// half their pages.
		cs = Pfu*(s*pu+2) + 4*(Pfu*pu*s/2)
	} else {
		K := Pfu * s * pu / 2
		pl := LoggingProbability(p.S, p.N, K)
		res.Pl = pl
		chain := pl - math.Pow(pl, s*pu)
		cl = (3+2*pl)*s*pu + 4*(s*pu+s*pu*pl+4) + 4*chain
		// c_b′ (verbatim up to OCR noise): read the logged fraction of
		// the concurrent transactions' records and the chain headers,
		// then undo: 6 transfers for a logged page in a dirty group, 5
		// for a twin-parity recovery.
		cb = (pu*pl*s/2)*Pfu + chain*Pfu + Pfu + (pu*s/2)*(6*pl+5*(1-pl)) + 4
		// c_s′ (verbatim): as c_b′ over the interrupted transactions,
		// plus S/N transfers to rebuild the current-parity bitmap.
		cs = Pfu*(s*pu*pl+2*chain+2) + Pfu*(pu*s/2)*(4*pl+5*(1-pl)) + float64(p.S)/float64(p.N)
	}
	if !afterImages {
		cl -= 4 * s * pu
	}
	cu := s*(1-c) + cl + pb*cb
	ct := (1-fu)*cr + fu*cu

	res.CR, res.CU, res.CL, res.CB, res.CS, res.CT = cr, cu, cl, cb, cs, ct
	res.Throughput = throughputTOC(p, ct, cs)
	return res
}

// --- Section 5.2.2: page logging, ¬ATOMIC, STEAL, ¬FORCE, ACC -------------

// PageNoForceACC evaluates the page logging ¬FORCE/ACC algorithm
// (Section 5.2.2), with or without RDA recovery.
//
// Pages are not forced at EOT; before- and after-images go to the log
// (c_l = 4·(2·s·p_u + 2), verbatim) and replaced modified pages are
// written back at a=4 (the old version is no longer buffered).  The
// checkpoint writes every modified buffer page (c_c = 4·B·p_m + 4,
// reconstructed) and the optimal interval maximizes r_t.
//
// With RDA, a stolen page is logged only with probability p_s·p_l
// (verbatim: K = P·s·f_u·p_u·p_s/2), write-backs to dirty groups pay the
// extra two twin updates, and recovery adds the S/N bitmap scan.
func PageNoForceACC(p Params, rda bool) Result {
	s, fu, pu, pb := p.PagesPerTx, p.UpdateFraction, p.UpdateProb, p.AbortProb
	c := p.Communality
	Pfu := float64(p.P) * fu
	pm := ModifiedProbability(fu, pu, c)
	ps := StealProbability(p.B, c, s, p.P)
	var res Result
	res.Pm, res.Ps = pm, ps

	var pl, chain float64
	if rda {
		K := float64(p.P) * s * fu * pu * ps / 2
		pl = LoggingProbability(p.S, p.N, K)
		chain = pl - math.Pow(pl, s*pu)
		res.Pl = pl
	}

	// Write-back cost of a replaced modified page: a=4, plus 2·p_l twin
	// updates for dirty groups under RDA.
	aEff := 4.0
	if rda {
		aEff = 4 + 2*pl
	}
	cr := s*(1-c) + aEff*s*(1-c)*pm

	var cl, cb float64
	if !rda {
		cl = 4 * (2*s*pu + 2)
		// c_b (reconstructed): the log holds both before- and
		// after-images, all read back to the BOT; before-images of the
		// stolen fraction are written through to disk.
		cb = 2*(pu*s/2)*Pfu + Pfu + 4*pu*(s/2)*ps + 4
	} else {
		// A before-image is avoided only for a page that is stolen AND
		// whose group supports the twin-parity undo — probability
		// p_s·(1−p_l) — mirroring the record-logging equation's verbatim
		// factor L·(2 − p_s(1−p_l)) in Section 5.3.2.  Everything else
		// keeps Reuter's before+after logging.
		cl = 4*(s*pu*(2-ps*(1-pl))+2) + 4*chain
		// c_b′ (verbatim fragment): unstolen replaced pages are written
		// back at (4+2p_l); stolen pages cost 6 (logged, dirty group) or
		// 5 (twin-parity undo).
		cb = Pfu*(pu*ps*pl*s/2) + Pfu + pu*(s/2)*((4+2*pl)*(1-c)*(1-ps)+6*ps*pl+5*ps*(1-pl)) + 4
	}
	cu := s*(1-c) + aEff*s*(1-c)*pm + cl + pb*cb
	ct := (1-fu)*cr + fu*cu

	// Checkpoint cost: write back every modified buffer page.
	cc := aEff*float64(p.B)*pm + 4

	// Crash recovery cost: redo the r_c/2 transactions since the middle
	// of the last checkpoint interval (read their log records, write
	// their pages back) and undo the P·f_u interrupted ones; RDA adds
	// the S/N bitmap scan.
	bitmap := 0.0
	if rda {
		bitmap = float64(p.S) / float64(p.N)
	}
	csOf := func(rc float64) float64 {
		return (rc/2)*fu*(cl/4+4*s*pu) + Pfu*(cl/4+4*s*pu) + bitmap
	}
	rt, bestI, cs := throughputACC(p, ct, cc, csOf)

	res.CR, res.CU, res.CL, res.CB, res.CC, res.CS, res.CT = cr, cu, cl, cb, cc, cs, ct
	res.Interval = bestI
	res.Throughput = rt
	return res
}

// --- Section 5.3.1: record logging, FORCE, TOC ----------------------------

// RecordForceTOC evaluates the record logging FORCE/TOC algorithm
// (Section 5.3.1), with or without RDA recovery.  Log volume is measured
// in log pages of length l_p holding entries of average length L; record
// locking lets transactions share pages, so Equation 5's K becomes
// s_u/2 with s_u from the Appendix recurrence.  The cost equations are
// verbatim from the paper.
func RecordForceTOC(p Params, rda bool) Result {
	s, fu, pu, pb := p.PagesPerTx, p.UpdateFraction, p.UpdateProb, p.AbortProb
	c := p.Communality
	Pfu := float64(p.P) * fu
	L := AvgLogEntryLen(p)
	lbc, lp, lh := p.BOTLen, p.LogPageLen, p.ChainHeaderLen
	var res Result

	cr := s * (1 - c)

	var cl, cb, cs float64
	if !rda {
		cl = 3*s*pu + 4*2*(2*lbc+s*pu*(lbc+L))/lp
		cb = Pfu*(lbc+s*pu*(lbc+L)/2)/lp + 4*(pu*s/2) + 4
		cs = Pfu*(2*lbc+s*pu*(lbc+L))/lp + 4*Pfu*(pu*s/2)
	} else {
		su := SharedUpdatedPages(p.B, c, s, pu, Pfu)
		pl := LoggingProbability(p.S, p.N, su/2)
		res.Pl = pl
		chain := pl - math.Pow(pl, s*pu)
		cl = (3+2*pl)*s*pu + 4*(2*lbc+s*pu*(lbc+L))/lp +
			4*(2*lbc+s*pu*(lbc+L)*pl+(lbc+lh)*chain)/lp
		cb = Pfu*(lbc+s*pu*(lbc+L)*pl/2+(lbc+lh)*chain)/lp +
			(pu*s/2)*(6*pl+5*(1-pl)) + 4
		cs = Pfu*(2*lbc+s*pu*(lbc+L)*pl+2*(lbc+lh)*chain)/lp +
			(Pfu*pu*s/2)*(4*pl+5*(1-pl)) + float64(p.S)/float64(p.N)
	}
	cu := s*(1-c) + cl + pb*cb
	ct := (1-fu)*cr + fu*cu

	res.CR, res.CU, res.CL, res.CB, res.CS, res.CT = cr, cu, cl, cb, cs, ct
	res.Throughput = throughputTOC(p, ct, cs)
	return res
}

// --- Section 5.3.2: record logging, ¬FORCE, ACC ---------------------------

// RecordNoForceACC evaluates the record logging ¬FORCE/ACC algorithm
// (Section 5.3.2), with or without RDA recovery.  It combines the
// Section 5.2.2 structure with the record-granularity log volume of
// Section 5.3.1 (the paper derives it exactly that way).  The c_l, c_b,
// c_r and c_u equations are verbatim; K in Equation 5 is s_u·p_s/2, and
// the page-sharing surcharge p_i uses s_u computed over the other P−1
// transactions.
func RecordNoForceACC(p Params, rda bool) Result {
	s, fu, pu, pb := p.PagesPerTx, p.UpdateFraction, p.UpdateProb, p.AbortProb
	c := p.Communality
	Pfu := float64(p.P) * fu
	L := AvgLogEntryLen(p)
	lbc, lp, lh := p.BOTLen, p.LogPageLen, p.ChainHeaderLen
	pm := ModifiedProbability(fu, pu, c)
	ps := StealProbability(p.B, c, s, p.P)
	var res Result
	res.Pm, res.Ps = pm, ps

	// p_i: the proportion of replaced buffer pages modified by the other
	// concurrently executing transactions (verbatim: p_i = s_u/(B−C·s)
	// with s_u over P−1 transactions).
	suOthers := SharedUpdatedPages(p.B, c, s, pu, float64(p.P-1)*fu)
	pi := suOthers / (float64(p.B) - c*s)

	var pl, chain float64
	if rda {
		su := SharedUpdatedPages(p.B, c, s, pu, Pfu)
		pl = LoggingProbability(p.S, p.N, su*ps/2)
		chain = pl - math.Pow(pl, s*pu)
		res.Pl = pl
	}
	aEff := 4.0
	if rda {
		aEff = 4 + 2*pl
	}

	var cl, cb, cr, cu float64
	if !rda {
		cl = 4 * (2*lbc + s*pu*(lbc+2*L)) / lp
		cb = Pfu*(cl/8) + 4*pu*(s/2)*(1-c) + 4
		cr = s*(1-c) + 4*s*(1-c)*(pm+2*pi)
		cu = cr + cl + pb*cb
	} else {
		cl = 4 * (2*lbc + s*pu*(lbc+L*(2-ps*(1-pl))) + (lbc+lh)*chain) / lp
		cb = Pfu*(cl/8) + pu*(s/2)*((4+2*pl)*(1-c)*(1-ps)+6*ps*pl+5*ps*(1-pl)) + 4
		cr = s*(1-c) + aEff*s*(1-c)*(pm+2*pi*pl)
		cu = cr + cl + pb*cb
	}
	ct := (1-fu)*cr + fu*cu

	cc := aEff*float64(p.B)*pm + 4
	bitmap := 0.0
	if rda {
		bitmap = float64(p.S) / float64(p.N)
	}
	csOf := func(rc float64) float64 {
		return (rc/2)*fu*(cl/4+4*s*pu) + Pfu*(cl/4+4*s*pu) + bitmap
	}
	rt, bestI, cs := throughputACC(p, ct, cc, csOf)

	res.CR, res.CU, res.CL, res.CB, res.CC, res.CS, res.CT = cr, cu, cl, cb, cc, cs, ct
	res.Interval = bestI
	res.Throughput = rt
	return res
}

// Algorithm selects a model evaluator.
type Algorithm int

// The four algorithm families of Section 5.
const (
	AlgoPageForceTOC Algorithm = iota
	AlgoPageNoForceACC
	AlgoRecordForceTOC
	AlgoRecordNoForceACC
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgoPageForceTOC:
		return "page-logging FORCE/TOC"
	case AlgoPageNoForceACC:
		return "page-logging NOFORCE/ACC"
	case AlgoRecordForceTOC:
		return "record-logging FORCE/TOC"
	case AlgoRecordNoForceACC:
		return "record-logging NOFORCE/ACC"
	default:
		return "unknown"
	}
}

// Evaluate runs the selected evaluator.
func Evaluate(a Algorithm, p Params, rda bool) Result {
	switch a {
	case AlgoPageForceTOC:
		return PageForceTOC(p, rda)
	case AlgoPageNoForceACC:
		return PageNoForceACC(p, rda)
	case AlgoRecordForceTOC:
		return RecordForceTOC(p, rda)
	case AlgoRecordNoForceACC:
		return RecordNoForceACC(p, rda)
	default:
		panic("model: unknown algorithm")
	}
}
