package workload

import (
	"fmt"
	"strconv"
	"strings"

	"repro/rda/trace"
)

// A spec names a workload compactly: "name" or "name:key=val,key=val".
// Names: uniform, zipfian, banking, scan.  Shared keys override the
// base profile: s (pages per tx), fu, pu, pb, hot, txns, streams.
// Workload keys: theta (zipfian, default 0.99), accounts / initial /
// maxtransfer (banking).  Examples:
//
//	uniform:hot=0.6
//	zipfian:theta=0.99,s=8
//	banking:accounts=400,pb=0.02
//	scan:fu=0.1
//
// The spec plus the profile seed fully determine the generated trace.
type parsedSpec struct {
	name string
	kv   map[string]string
	raw  string
}

func parseSpec(s string) (parsedSpec, error) {
	sp := parsedSpec{raw: s, kv: map[string]string{}}
	name, rest, _ := strings.Cut(strings.TrimSpace(s), ":")
	sp.name = strings.ToLower(strings.TrimSpace(name))
	if sp.name == "" {
		return sp, fmt.Errorf("workload: empty spec")
	}
	if rest == "" {
		return sp, nil
	}
	for _, tok := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(tok, "=")
		if !ok || strings.TrimSpace(k) == "" {
			return sp, fmt.Errorf("workload: bad spec parameter %q in %q", tok, s)
		}
		sp.kv[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
	}
	return sp, nil
}

func (sp parsedSpec) float(key string, def float64) (float64, error) {
	v, ok := sp.kv[key]
	if !ok {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("workload: spec %q: bad %s=%q", sp.raw, key, v)
	}
	return f, nil
}

func (sp parsedSpec) int(key string, def int) (int, error) {
	v, ok := sp.kv[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("workload: spec %q: bad %s=%q", sp.raw, key, v)
	}
	return n, nil
}

// known keys per workload, for typo detection.
var specKeys = map[string]map[string]bool{
	"uniform": {},
	"zipfian": {"theta": true},
	"scan":    {},
	"banking": {"accounts": true, "initial": true, "maxtransfer": true},
}

var sharedKeys = map[string]bool{
	"s": true, "fu": true, "pu": true, "pb": true, "hot": true,
	"txns": true, "streams": true,
}

// FromSpec resolves a workload spec against a base profile: shared keys
// override profile fields, workload keys configure the planner.  The
// returned profile is what Generate must be called with.
func FromSpec(spec string, base Profile) (Profile, Planner, error) {
	sp, err := parseSpec(spec)
	if err != nil {
		return base, nil, err
	}
	own, ok := specKeys[sp.name]
	if !ok {
		return base, nil, fmt.Errorf("workload: unknown workload %q (want uniform, zipfian, banking or scan)", sp.name)
	}
	for k := range sp.kv {
		if !own[k] && !sharedKeys[k] {
			return base, nil, fmt.Errorf("workload: spec %q: unknown key %q", sp.raw, k)
		}
	}
	prof := base
	if prof.PagesPerTx, err = sp.int("s", prof.PagesPerTx); err != nil {
		return base, nil, err
	}
	if prof.UpdateFraction, err = sp.float("fu", prof.UpdateFraction); err != nil {
		return base, nil, err
	}
	if prof.UpdateProb, err = sp.float("pu", prof.UpdateProb); err != nil {
		return base, nil, err
	}
	if prof.AbortProb, err = sp.float("pb", prof.AbortProb); err != nil {
		return base, nil, err
	}
	if prof.Hot, err = sp.float("hot", prof.Hot); err != nil {
		return base, nil, err
	}
	if prof.Transactions, err = sp.int("txns", prof.Transactions); err != nil {
		return base, nil, err
	}
	if prof.Streams, err = sp.int("streams", prof.Streams); err != nil {
		return base, nil, err
	}

	switch sp.name {
	case "uniform":
		if prof, err = prof.validate(); err != nil {
			return base, nil, err
		}
		return prof, newMixPlanner(sp.raw, prof, uniformPicker{n: prof.NumPages}), nil
	case "zipfian":
		theta, err := sp.float("theta", 0.99)
		if err != nil {
			return base, nil, err
		}
		if !(theta > 0 && theta < 1) {
			return base, nil, fmt.Errorf("workload: zipfian theta must be in (0,1), got %g", theta)
		}
		if prof, err = prof.validate(); err != nil {
			return base, nil, err
		}
		return prof, newMixPlanner(sp.raw, prof, newZipfian(prof.NumPages, theta, true)), nil
	case "scan":
		// Scans are retrieval-heavy by default; explicit fu/pu still win.
		if _, ok := sp.kv["fu"]; !ok {
			prof.UpdateFraction = 0.1
		}
		if _, ok := sp.kv["pu"]; !ok {
			prof.UpdateProb = 0.3
		}
		if prof, err = prof.validate(); err != nil {
			return base, nil, err
		}
		return prof, newMixPlanner(sp.raw, prof, &scanPicker{n: prof.NumPages}), nil
	case "banking":
		accounts, err := sp.int("accounts", 0)
		if err != nil {
			return base, nil, err
		}
		initial, err := sp.int("initial", 1000)
		if err != nil {
			return base, nil, err
		}
		maxTransfer, err := sp.int("maxtransfer", 100)
		if err != nil {
			return base, nil, err
		}
		if initial < 1 || maxTransfer < 0 {
			return base, nil, fmt.Errorf("workload: spec %q: banking needs initial ≥ 1 and maxtransfer ≥ 0", sp.raw)
		}
		// Every transfer is an update of both its accounts: the
		// model-equivalent shape is s=2, f_u=1, p_u=1.
		prof.PagesPerTx = 2
		prof.UpdateFraction = 1
		prof.UpdateProb = 1
		if prof, err = prof.validate(); err != nil {
			return base, nil, err
		}
		if accounts == 0 {
			capacity := prof.NumPages
			if prof.Mode == trace.ModeRecord {
				capacity *= prof.recordsPerPage()
			}
			accounts = capacity / 2
			if accounts > 1000 {
				accounts = 1000
			}
		}
		pl, err := NewBanking(prof, accounts, int64(initial), int64(maxTransfer))
		if err != nil {
			return base, nil, err
		}
		return prof, pl, nil
	}
	panic("unreachable")
}
