// Package fault is the deterministic fault-injection plane for the
// simulated disk array.
//
// A Plane implements disk.Injector: installed on every drive of an array
// it observes each charged block I/O in issue order and keeps the clocks
// — one count per op of the accesses that proceeded; a write rule's index
// is on the write clock, a transient rule's on its own op's.  A Schedule,
// an ordered list of Rules built by the constructors below, tells the plane
// which accesses to subvert.  What a rule does to an access is one pure
// function, decide, and DESIGN.md's "Fault plane" table is that function
// row by row: the drive only carries the decision out.
//
// Schedules are pure data: deterministic, comparable, printable via
// String, and replayable — running the same workload under the same
// schedule reproduces the same fault, which is what lets a randomized
// soak failure be replayed from its printed seed.
//
// A tripped crash rule panics with *Crash.  Harnesses recover it with
// AsCrash and then drive the engine's hard-crash entry point; the panic
// unwinds through the disk (deferred unlock) and the buffer pool (no
// internal locking), both of which tolerate it by construction.
package fault

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/disk"
)

// ErrTransient is the error a TransientError rule injects.  It is the
// disk layer's transient-error class, so the array's retry layer treats
// injected faults exactly like native ones.
var ErrTransient = disk.ErrTransient

// Crash is the sentinel panic value of a tripped crash point.
type Crash struct {
	// Writes is the number of block writes fully applied before the
	// crash.
	Writes int64
	// Access is the I/O the crash interrupted.
	Access disk.Access
	// Torn reports whether the cut tore a payload write (partially
	// applied it, unless the drive was dead by then) rather than dropping
	// it cleanly.
	Torn bool
}

// String implements fmt.Stringer.
func (c *Crash) String() string {
	kind := "crash"
	if c.Torn {
		kind = "torn crash"
	}
	return fmt.Sprintf("%s at write %d (%s)", kind, c.Writes, c.Access)
}

// AsCrash extracts the crash sentinel from a recovered panic value.
func AsCrash(r any) (*Crash, bool) {
	c, ok := r.(*Crash)
	return c, ok
}

// RuleKind classifies a schedule rule.
type RuleKind uint8

// The schedule rule kinds.
const (
	KindCrash RuleKind = iota
	KindTorn
	KindTransient
	KindBitFlip
	KindFailDisk
	KindLostWrite
	KindMisdirected
)

// Rule is one deterministic fault in a schedule.  It fires at most once,
// where decide says.
type Rule struct {
	Kind RuleKind
	// After is the rule's 0-based index on its clock: the write clock, or
	// for TransientError the count of Op's accesses.
	After int64
	// Op is the op a TransientError rule fails and counts.
	Op disk.Op
	// Disk is the FailDisk target drive.
	Disk int
	// Head selects which half of a torn payload persists (true = the new
	// first half).
	Head bool
	// Bit is the payload bit a BitFlip rule flips (byte = Bit/8 within
	// the block, bit = Bit%8).
	Bit int
	// Block is the victim block a Misdirected rule redirects the write to
	// (modulo the drive's size).
	Block int

	fired bool
}

// syntax is each kind's replayable form, name[arg]@wN, by kind: String
// prints a rule from it and ParseSchedule reads one back.  arg points at
// the bracketed argument (*bool: tail|head, *disk.Op: its name, *int: a
// non-negative number), nil for none; clock prefixes the index, "" for a
// transient rule, which counts its own op's accesses.
var syntax = [...]struct {
	name  string
	arg   func(*Rule) any
	clock string
}{
	KindCrash:       {"crash", nil, "w"},
	KindTorn:        {"torn", func(r *Rule) any { return &r.Head }, "w"},
	KindTransient:   {"transient", func(r *Rule) any { return &r.Op }, ""},
	KindBitFlip:     {"bitflip", func(r *Rule) any { return &r.Bit }, "w"},
	KindFailDisk:    {"faildisk", func(r *Rule) any { return &r.Disk }, "w"},
	KindLostWrite:   {"lostwrite", nil, "w"},
	KindMisdirected: {"misdirected", func(r *Rule) any { return &r.Block }, "w"},
}

// String renders the rule in the replayable schedule syntax.
func (r Rule) String() string {
	if int(r.Kind) >= len(syntax) {
		return fmt.Sprintf("rule(kind=%d)", r.Kind)
	}
	f := syntax[r.Kind]
	name := f.name
	if f.arg != nil {
		var arg string
		switch p := f.arg(&r).(type) {
		case *bool:
			arg = "tail"
			if *p {
				arg = "head"
			}
		case *disk.Op:
			arg = p.String()
		case *int:
			arg = strconv.Itoa(*p)
		}
		name += "[" + arg + "]"
	}
	return fmt.Sprintf("%s@%s%d", name, f.clock, r.After)
}

// CrashAfterNWrites builds a rule that lets n writes apply and crashes
// the n+1-th before it reaches the disk.
func CrashAfterNWrites(n int64) Rule { return Rule{Kind: KindCrash, After: n} }

// TornWrite builds a rule that tears write n (header persists, half the
// payload does) and then crashes.
func TornWrite(n int64, head bool) Rule { return Rule{Kind: KindTorn, After: n, Head: head} }

// TransientError builds a rule that fails the n-th access of op (0-based,
// counting only the accesses of op) once with ErrTransient.
func TransientError(op disk.Op, n int64) Rule { return Rule{Kind: KindTransient, After: n, Op: op} }

// BitFlip builds a rule that silently flips payload bit `bit` of write n
// after it applies.
func BitFlip(n int64, bit int) Rule { return Rule{Kind: KindBitFlip, After: n, Bit: bit} }

// FailDisk builds a rule that fail-stops drive d at its first access
// once n block writes have been applied.
func FailDisk(d int, n int64) Rule { return Rule{Kind: KindFailDisk, After: n, Disk: d} }

// LostWrite builds a rule that makes the drive acknowledge write n
// without persisting it: the old block contents survive, internally
// consistent, so only the array's write ledger can tell.
func LostWrite(n int64) Rule { return Rule{Kind: KindLostWrite, After: n} }

// Misdirected builds a rule that lands write n — payload, header and
// location stamp — at block `block` (modulo the drive size) of the same
// drive instead of the addressed block.
func Misdirected(n int64, block int) Rule {
	return Rule{Kind: KindMisdirected, After: n, Block: block}
}

// Schedule is an ordered set of rules.
type Schedule []Rule

// String renders the whole schedule in replayable syntax.
func (s Schedule) String() string {
	if len(s) == 0 {
		return "(empty schedule)"
	}
	parts := make([]string, len(s))
	for i, r := range s {
		parts[i] = r.String()
	}
	return strings.Join(parts, " ")
}

// ParseSchedule parses the replayable syntax Schedule.String produces:
// space-separated rules of the forms
//
//	crash@wN  torn[head|tail]@wN  transient[read|write|readmeta|writemeta]@N
//	bitflip[B]@wN  faildisk[D]@wN  lostwrite@wN  misdirected[B]@wN
//
// It is the inverse of String, so a schedule printed by a failing soak
// run can be fed back verbatim to reproduce it.
func ParseSchedule(s string) (Schedule, error) {
	var out Schedule
	for _, tok := range strings.Fields(s) {
		r, err := parseRule(tok)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func parseRule(tok string) (Rule, error) {
	bad := func() (Rule, error) { return Rule{}, fmt.Errorf("fault: bad rule %q", tok) }
	name, index, found := strings.Cut(tok, "@")
	if !found {
		return bad()
	}
	var arg string
	if i := strings.IndexByte(name, '['); i >= 0 {
		if !strings.HasSuffix(name, "]") {
			return bad()
		}
		name, arg = name[:i], name[i+1:len(name)-1]
	}
	for k, f := range syntax {
		if f.name != name {
			continue
		}
		r := Rule{Kind: RuleKind(k)}
		ok := arg == ""
		if f.arg != nil {
			switch p := f.arg(&r).(type) {
			case *bool:
				*p, ok = arg == "head", arg == "head" || arg == "tail"
			case *disk.Op:
				for op := disk.OpRead; op <= disk.OpWriteMeta; op++ {
					if op.String() == arg {
						*p, ok = op, true
					}
				}
			case *int:
				n, err := strconv.Atoi(arg)
				*p, ok = n, err == nil && n >= 0
			}
		}
		digits, prefixed := strings.CutPrefix(index, f.clock)
		n, err := strconv.ParseInt(digits, 10, 64)
		if !ok || !prefixed || err != nil || n < 0 {
			return bad()
		}
		r.After = n
		return r, nil
	}
	return bad()
}

// Plane is the fault-injection plane: one per array, installed on every
// drive.  It is safe for concurrent use.
type Plane struct {
	mu    sync.Mutex
	rules []Rule
	// n counts the accesses of each op that proceeded: a transient error
	// or a clean crash stops an access, a tear does not.  The write clock
	// is n[OpWrite] + n[OpWriteMeta]; a transient rule counts its own op.
	n [4]int64
	// transientEvery, when positive, fails every n-th access (across all
	// op classes, counting failed attempts too) with ErrTransient — a
	// deterministic background error rate for degraded-mode soaks, O(1)
	// per access where an equivalent rule list would be O(rate·accesses).
	transientEvery int64
	accesses       int64 // all observed accesses, applied or not
	// bitFlipEvery, when positive, silently flips one payload bit of
	// every n-th block write (rotating the flipped bit with the write
	// count) — a deterministic background corruption rate for integrity
	// benchmarks, O(1) per access like transientEvery.
	bitFlipEvery int64
	// seed phase-shifts the background rates (which access in each
	// period fails, which bit offset a flip starts from) without
	// changing the rates themselves, so harness seeds vary the fault
	// placement deterministically.  Zero is a valid seed.
	seed uint64
}

// NewPlane builds a plane executing the given schedule.  An empty
// schedule makes the plane a pure access counter.
func NewPlane(s Schedule) *Plane {
	rules := make([]Rule, len(s))
	copy(rules, s)
	return &Plane{rules: rules}
}

// Writes returns the number of block writes observed so far (writes the
// plane crashed or errored before application are not counted).
func (p *Plane) Writes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.writes()
}

// Reads returns the number of block reads observed so far.
func (p *Plane) Reads() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n[disk.OpRead] + p.n[disk.OpReadMeta]
}

// writes is the write clock.  Must be called with p.mu held.
func (p *Plane) writes() int64 { return p.n[disk.OpWrite] + p.n[disk.OpWriteMeta] }

// SetTransientEvery makes the plane fail every n-th observed access with
// ErrTransient, independent of the schedule (0 disables).  Because the
// counter includes failed attempts, an isolated hit is always masked by a
// single retry: the retry lands on a non-multiple count.
func (p *Plane) SetTransientEvery(n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.transientEvery = n
}

// SetBitFlipEvery makes the plane silently flip one payload bit of every
// n-th block write, independent of the schedule (0 disables).  The
// flipped bit index rotates with the write count so the damage is spread
// across the page.
func (p *Plane) SetBitFlipEvery(n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bitFlipEvery = n
}

// SetSeed phase-shifts the plane's background rates: with the same
// rates and workload, different seeds hit different accesses and flip
// different bits, while one seed always reproduces the same faults.
// Scheduled rules are unaffected — they name exact access indices.
func (p *Plane) SetSeed(seed int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seed = uint64(seed)
}

// Observe implements disk.Injector: it asks each armed rule, through
// decide, what it does to the access, and moves the clocks.
func (p *Plane) Observe(a disk.Access) disk.Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	var dec disk.Decision
	writes := p.writes()
	p.accesses++
	if p.transientEvery > 0 && (p.accesses+int64(p.seed%uint64(p.transientEvery)))%p.transientEvery == 0 {
		dec.Err = ErrTransient
	}
	if p.bitFlipEvery > 0 && a.Op == disk.OpWrite && (writes+1)%p.bitFlipEvery == 0 {
		dec.FlipBit = true
		dec.FlipBitOffset = int((writes + int64(p.seed%257)) % 257) // rotate through bit offsets
	}
	for i := range p.rules {
		r := &p.rules[i]
		if r.fired {
			continue
		}
		if d, fired := decide(*r, p.view(*r, a)); fired {
			if c, ok := d.Panic.(*Crash); ok {
				c.Writes, c.Access = writes, a
			}
			r.fired = true
			join(&dec, d)
		}
	}
	if dec.Err == nil && (dec.Panic == nil || dec.Torn) {
		p.n[a.Op]++
	}
	return dec
}

// view is rule r's view of access a.  Must be called with p.mu held.
func (p *Plane) view(r Rule, a disk.Access) view {
	v := view{op: a.Op, own: true}
	clock := p.writes()
	switch r.Kind {
	case KindTransient:
		clock, v.own = p.n[r.Op], a.Op == r.Op
	case KindFailDisk:
		v.own = a.Disk == r.Disk
	}
	switch {
	case clock < r.After:
		v.clock = before
	case clock == r.After:
		v.clock = at
	default:
		v.clock = past
	}
	return v
}

// position is where a rule's clock stands against its index.
type position uint8

// The three positions.
const (
	before position = iota
	at
	past
)

// view is what decide sees of one access from one rule's side.
type view struct {
	op disk.Op
	// clock is where the rule's clock stands: the write clock, or for a
	// transient rule the count of its own op's accesses.
	clock position
	// own is false when the access is not the rule's to take: of another
	// op than a transient rule's, or on another drive than a faildisk
	// rule's.
	own bool
}

// decide is the fault plane's one decision: what rule r asks of an
// access, and whether the rule fires (a fired rule never fires again).  A
// crash sentinel it returns is stamped with the access by Observe.
// DESIGN.md's fault plane table is this function; TestDecideMatchesDesignTable
// checks the two agree over every view.  The drive's state and a
// coinciding transient error never change the answer, only what the drive
// makes of it (disk.Decision).
func decide(r Rule, v view) (dec disk.Decision, fired bool) {
	if !v.own || v.clock == before {
		return dec, false
	}
	switch {
	case r.Kind == KindFailDisk:
		// Dies at its drive's first access, reads included, once the write
		// clock has reached its index.
		dec.FailDisk = true
	case v.clock == past:
		return dec, false
	case r.Kind == KindTransient:
		dec.Err = ErrTransient
	case !v.op.IsWrite():
		return dec, false
	case r.Kind == KindCrash:
		dec.Panic = &Crash{}
	case r.Kind == KindTorn:
		// A header write is one out-of-band transfer: a tear that lands on
		// one is a clean crash.
		torn := v.op == disk.OpWrite
		dec.Torn, dec.TornHead = torn, torn && r.Head
		dec.Panic = &Crash{Torn: torn}
	case v.op == disk.OpWriteMeta:
		// ROADMAP 1(d): the header write takes the silent rule's index, and
		// the rule never fires.
		return dec, false
	case r.Kind == KindBitFlip:
		dec.FlipBit, dec.FlipBitOffset = true, r.Bit
	case r.Kind == KindLostWrite:
		dec.LostWrite = true
	case r.Kind == KindMisdirected:
		dec.Redirect, dec.RedirectBlock = true, r.Block
	default:
		return dec, false
	}
	return dec, true
}

// join adds what one rule asks of an access to what the rate and the
// rules before it ask: each field a rule sets overrides.
func join(dec *disk.Decision, d disk.Decision) {
	if d.Err != nil {
		dec.Err = d.Err
	}
	if d.FailDisk {
		dec.FailDisk = true
	}
	if d.Torn {
		dec.Torn, dec.TornHead = true, d.TornHead
	}
	if d.FlipBit {
		dec.FlipBit, dec.FlipBitOffset = true, d.FlipBitOffset
	}
	if d.LostWrite {
		dec.LostWrite = true
	}
	if d.Redirect {
		dec.Redirect, dec.RedirectBlock = true, d.RedirectBlock
	}
	if d.Panic != nil {
		dec.Panic = d.Panic
	}
}
