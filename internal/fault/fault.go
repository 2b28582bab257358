// Package fault is the deterministic fault-injection plane for the
// simulated disk array.
//
// A Plane implements disk.Injector: installed on every drive of an array
// it observes each charged block I/O in issue order and maintains global
// read and write counters.  A Schedule — an ordered list of Rules — tells
// the plane how to subvert specific accesses:
//
//   - CrashAfterNWrites(n): the first n block writes apply in full; the
//     n+1-th (0-based index n) panics with a *Crash sentinel before it
//     reaches the platter.  Sweeping n over [0, total) therefore crashes
//     the system at every write boundary of a workload.
//   - TornWrite(n): like CrashAfterNWrites, except write n itself is torn
//     mid-transfer — the out-of-band header persists, half of the payload
//     does (old/new half selected by the rule), the stored checksum goes
//     stale — and then the sentinel panics.  A header-only write cannot
//     tear (it is one out-of-band transfer): at one, the rule is a clean
//     crash.
//   - TransientError(op, n): the n-th access of the given op class fails
//     once with disk.ErrTransient; the block is untouched and later
//     retries succeed.
//   - BitFlip(n, bit): write n applies, then one payload bit flips
//     silently (checksum left stale) — latent corruption for scrub tests.
//   - FailDisk(d, n): once n block writes have been applied, drive d
//     fail-stops at its next access (read or write), modelling a disk
//     dying mid-workload — e.g. a second failure during a rebuild that
//     is only reading the survivors.
//   - LostWrite(n): write n is acknowledged but never persisted — the old
//     block contents survive, internally consistent, detectable only by
//     the array's write ledger.
//   - Misdirected(n, b): write n lands whole at block b of the same drive
//     instead of the addressed block; the location stamp it carries names
//     the intended position, which is what betrays it.
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
	// Torn reports whether the interrupted write was torn (partially
	// applied) rather than cleanly dropped.
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

// Rule is one deterministic fault in a schedule.  Counting rules trigger
// when the plane's global counter for their op class reaches After.
type Rule struct {
	Kind RuleKind
	// After is the 0-based global write index (or access index for
	// TransientError) at which the rule trips.
	After int64
	// Op is the access class TransientError counts (writes for all other
	// kinds).
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

// String renders the rule in the replayable schedule syntax.
func (r Rule) String() string {
	switch r.Kind {
	case KindCrash:
		return fmt.Sprintf("crash@w%d", r.After)
	case KindTorn:
		half := "tail"
		if r.Head {
			half = "head"
		}
		return fmt.Sprintf("torn[%s]@w%d", half, r.After)
	case KindTransient:
		return fmt.Sprintf("transient[%s]@%d", r.Op, r.After)
	case KindBitFlip:
		return fmt.Sprintf("bitflip[%d]@w%d", r.Bit, r.After)
	case KindFailDisk:
		return fmt.Sprintf("faildisk[%d]@w%d", r.Disk, r.After)
	case KindLostWrite:
		return fmt.Sprintf("lostwrite@w%d", r.After)
	case KindMisdirected:
		return fmt.Sprintf("misdirected[%d]@w%d", r.Block, r.After)
	default:
		return fmt.Sprintf("rule(kind=%d)", r.Kind)
	}
}

// CrashAfterNWrites builds a rule that lets n writes apply and crashes
// the n+1-th before it reaches the disk.
func CrashAfterNWrites(n int64) Rule { return Rule{Kind: KindCrash, After: n} }

// TornWrite builds a rule that tears write n (header persists, half the
// payload does) and then crashes.
func TornWrite(n int64, head bool) Rule { return Rule{Kind: KindTorn, After: n, Head: head} }

// TransientError builds a rule that fails the n-th access of class op
// once with ErrTransient.
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
	name, rest, ok := strings.Cut(tok, "@")
	if !ok {
		return bad()
	}
	var arg string
	if i := strings.IndexByte(name, '['); i >= 0 {
		if !strings.HasSuffix(name, "]") {
			return bad()
		}
		name, arg = name[:i], name[i+1:len(name)-1]
	}
	parseAfter := func(counted bool) (int64, bool) {
		if counted {
			if !strings.HasPrefix(rest, "w") {
				return 0, false
			}
			rest = rest[1:]
		}
		n, err := strconv.ParseInt(rest, 10, 64)
		return n, err == nil && n >= 0
	}
	switch name {
	case "crash":
		if arg != "" {
			return bad()
		}
		n, ok := parseAfter(true)
		if !ok {
			return bad()
		}
		return CrashAfterNWrites(n), nil
	case "torn":
		if arg != "head" && arg != "tail" {
			return bad()
		}
		n, ok := parseAfter(true)
		if !ok {
			return bad()
		}
		return TornWrite(n, arg == "head"), nil
	case "transient":
		var op disk.Op
		switch arg {
		case "read":
			op = disk.OpRead
		case "write":
			op = disk.OpWrite
		case "readmeta":
			op = disk.OpReadMeta
		case "writemeta":
			op = disk.OpWriteMeta
		default:
			return bad()
		}
		n, ok := parseAfter(false)
		if !ok {
			return bad()
		}
		return TransientError(op, n), nil
	case "bitflip":
		bit, err := strconv.Atoi(arg)
		if err != nil || bit < 0 {
			return bad()
		}
		n, ok := parseAfter(true)
		if !ok {
			return bad()
		}
		return BitFlip(n, bit), nil
	case "faildisk":
		d, err := strconv.Atoi(arg)
		if err != nil || d < 0 {
			return bad()
		}
		n, ok := parseAfter(true)
		if !ok {
			return bad()
		}
		return FailDisk(d, n), nil
	case "lostwrite":
		if arg != "" {
			return bad()
		}
		n, ok := parseAfter(true)
		if !ok {
			return bad()
		}
		return LostWrite(n), nil
	case "misdirected":
		block, err := strconv.Atoi(arg)
		if err != nil || block < 0 {
			return bad()
		}
		n, ok := parseAfter(true)
		if !ok {
			return bad()
		}
		return Misdirected(n, block), nil
	default:
		return bad()
	}
}

// Plane is the fault-injection plane: one per array, installed on every
// drive.  It is safe for concurrent use.
type Plane struct {
	mu     sync.Mutex
	rules  []Rule
	writes int64 // block writes observed (and allowed to proceed)
	reads  int64 // block reads observed
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
	return p.writes
}

// Reads returns the number of block reads observed so far.
func (p *Plane) Reads() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reads
}

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

// Observe implements disk.Injector.
func (p *Plane) Observe(a disk.Access) disk.Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	var dec disk.Decision
	p.accesses++
	if p.transientEvery > 0 && (p.accesses+int64(p.seed%uint64(p.transientEvery)))%p.transientEvery == 0 {
		dec.Err = ErrTransient
	}
	if p.bitFlipEvery > 0 && a.Op == disk.OpWrite && (p.writes+1)%p.bitFlipEvery == 0 {
		dec.FlipBit = true
		dec.FlipBitOffset = int((p.writes + int64(p.seed%257)) % 257) // rotate through bit offsets
	}
	for i := range p.rules {
		r := &p.rules[i]
		if r.fired {
			continue
		}
		switch r.Kind {
		case KindCrash:
			if a.Op.IsWrite() && p.writes == r.After {
				r.fired = true
				dec.Panic = &Crash{Writes: p.writes, Access: a}
			}
		case KindTorn:
			// A header write is one atomic out-of-band transfer: a tear
			// that lands on one is a clean crash.
			if a.Op.IsWrite() && p.writes == r.After {
				r.fired = true
				torn := a.Op == disk.OpWrite
				dec.Torn, dec.TornHead = torn, r.Head
				dec.Panic = &Crash{Writes: p.writes, Access: a, Torn: torn}
			}
		case KindTransient:
			if a.Op == r.Op && p.count(a.Op) == r.After {
				r.fired = true
				dec.Err = ErrTransient
			}
		case KindBitFlip:
			if a.Op == disk.OpWrite && p.writes == r.After {
				r.fired = true
				dec.FlipBit = true
				dec.FlipBitOffset = r.Bit
			}
		case KindFailDisk:
			// Once the write clock reaches After, the target drive dies at
			// its next access of any kind — reads included, so a disk can
			// fail under a rebuild that only reads it.
			if a.Disk == r.Disk && p.writes >= r.After {
				r.fired = true
				dec.FailDisk = true
			}
		case KindLostWrite:
			if a.Op == disk.OpWrite && p.writes == r.After {
				r.fired = true
				dec.LostWrite = true
			}
		case KindMisdirected:
			if a.Op == disk.OpWrite && p.writes == r.After {
				r.fired = true
				dec.Redirect = true
				dec.RedirectBlock = r.Block
			}
		}
	}
	// A transient error or a clean crash means the access does not happen;
	// count only what proceeds (torn writes do reach the platter).
	if dec.Err == nil && (dec.Panic == nil || dec.Torn) {
		if a.Op.IsWrite() {
			p.writes++
		} else {
			p.reads++
		}
	}
	return dec
}

// count returns the plane's counter for the op class.  Must be called
// with p.mu held.
func (p *Plane) count(op disk.Op) int64 {
	if op.IsWrite() {
		return p.writes
	}
	return p.reads
}
