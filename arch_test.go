package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestSleepSites: outside tests, time.Sleep appears only where a simulated
// service time is slept — a drive's transfer, a log force, the group-commit
// window — so no other code path depends on the wall clock.  A new site
// must be added here with its reason.
func TestSleepSites(t *testing.T) {
	got := sites(t, ".", func(file *ast.File, n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Sleep" {
			return false
		}
		x, ok := sel.X.(*ast.Ident)
		return ok && x.Name == importName(file, "time")
	})
	want := []string{
		"internal/disk/disk.go (*Disk).serviceTime",   // a drive's simulated transfer time
		"internal/wal/groupcommit.go (*Forcer).Force", // the group-commit window
		"internal/wal/wal.go (*Log).Force",            // a log force's simulated service time
	}
	if !slices.Equal(got, want) {
		t.Errorf("time.Sleep sites outside tests:\n got: %q\nwant: %q", got, want)
	}
}

// TestGoStatementSites: under internal/ and rda/, a goroutine is started
// only by workpool, the one fork the engine's parallel work goes through,
// and by the background scrub cycle.  A new go statement must go through
// workpool or be added here with its reason.
func TestGoStatementSites(t *testing.T) {
	var got []string
	for _, dir := range []string{"internal", "rda"} {
		got = append(got, sites(t, dir, func(_ *ast.File, n ast.Node) bool {
			_, ok := n.(*ast.GoStmt)
			return ok
		})...)
	}
	want := []string{
		"internal/workpool/workpool.go RunLanes", // the worker pool itself
		"rda/scrub.go (*DB).StartScrub",          // one background scrub cycle
	}
	if !slices.Equal(got, want) {
		t.Errorf("go statements under internal/ and rda/:\n got: %q\nwant: %q", got, want)
	}
}

// TestUnchargedIOSites: outside tests, the dumpers of cmd/ and the crash
// checker, a block is read or damaged without charging a transfer only at
// these sites.  PeekMeta's, PeekData's and PeekPage's reads bypass the
// transfer counters and the array's write ledger, so a measured path that
// peeks undercounts its I/O.  A new site must be added here with its
// reason.
func TestUnchargedIOSites(t *testing.T) {
	var got []string
	for _, site := range sites(t, ".", func(_ *ast.File, n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		switch sel.Sel.Name {
		case "PeekMeta", "PeekData", "PeekPage", "CorruptBlock":
			return true
		}
		return false
	}) {
		if !strings.HasPrefix(site, "cmd/") && !strings.HasPrefix(site, "rda/crashcheck/") {
			got = append(got, site)
		}
	}
	want := []string{
		"internal/core/core.go (*Store).DescribingTwin",       // bystander repair's echo: arbitration is about the bytes on the platter
		"internal/core/core.go (*Store).WriteLogged",          // the P header smallWriteParity has just read and verified under the latch
		"internal/core/core.go (*Store).resyncGroup",          // the current P header, which the resync recomputes under
		"internal/core/core.go (*Store).resyncSettleP",        // the other twin's state, after Verify has read it whole
		"internal/core/degraded.go (*Store).writeDegraded",    // a twinless P header, kept as a dead page's value is written into P
		"internal/core/repair.go (*Store).repair",             // the own header of a page whose payload alone failed its checksum
		"internal/diskarray/diskarray.go (*Array).PeekData",   // the array's uncharged data read
		"internal/diskarray/diskarray.go (*Array).PeekMeta",   // the array's uncharged header read
		"internal/diskarray/diskarray.go (*Array).Verify",     // the parity check, a verification aid
		"internal/recovery/torn.go (*state).repairTornData",   // a torn page's surviving header: the platter's bytes decide
		"internal/recovery/torn.go (*state).repairTornParity", // a torn twin's surviving header: the platter's bytes decide
		"rda/db.go (*DB).formatRecordPages",                   // factory formatting, uncharged like the array's own
		"rda/stats.go (*DB).InspectGroup",                     // introspection of a group's twin headers
		"rda/stats.go (*DB).PeekPage",                         // the engine's uncharged page read, for inspection
		"rda/trace/replay.go Replay",                          // the replay's final digest, after its counters are taken
		"rda/verify.go (*DB).VerifyRecovered",                 // the post-recovery invariant check
	}
	if !slices.Equal(got, want) {
		t.Errorf("uncharged I/O sites outside tests, cmd/ and rda/crashcheck:\n got: %q\nwant: %q", got, want)
	}
}

// TestExportedSurface: api.golden lists every exported top-level func,
// method, type, var and const of each package outside cmd/ and examples/,
// one "dir kind name" per line, sorted.  A change that adds an exported
// name adds its line and says why; one that deletes a name deletes its
// line, so the golden's diff is the change's surface diff.
func TestExportedSurface(t *testing.T) {
	got := exportedSurface(t)
	raw, err := os.ReadFile("api.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if slices.Equal(got, want) {
		return
	}
	for _, name := range got {
		if _, found := slices.BinarySearch(want, name); !found {
			t.Errorf("exported but not in api.golden: %s", name)
		}
	}
	for _, name := range want {
		if _, found := slices.BinarySearch(got, name); !found {
			t.Errorf("in api.golden but not exported: %s", name)
		}
	}
	if !slices.IsSorted(want) {
		t.Errorf("api.golden is not sorted")
	}
}

// exportedSurface returns, sorted, one "dir kind name" line per exported
// top-level declaration of every non-main package; a name declared in two
// files under different build constraints is listed once.
func exportedSurface(t *testing.T) []string {
	t.Helper()
	var out []string
	walkGoFiles(t, ".", func(path string, file *ast.File) {
		if file.Name.Name == "main" {
			return
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() {
					out = append(out, dir+" func "+funcName(d))
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							out = append(out, dir+" type "+sp.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() {
								out = append(out, dir+" "+d.Tok.String()+" "+n.Name)
							}
						}
					}
				}
			}
		}
	})
	slices.Sort(out)
	return slices.Compact(out)
}

// sites returns, sorted, one "path function" entry for every node match
// accepts in the files walkGoFiles visits under root, function being the
// enclosing top-level declaration ("(*T).M", "F", or "package scope").
func sites(t *testing.T, root string, match func(*ast.File, ast.Node) bool) []string {
	t.Helper()
	var out []string
	walkGoFiles(t, root, func(path string, file *ast.File) {
		for _, decl := range file.Decls {
			where := "package scope"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				where = funcName(fn)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if n != nil && match(file, n) {
					out = append(out, path+" "+where)
				}
				return true
			})
		}
	})
	slices.Sort(out)
	return out
}

// walkGoFiles parses every non-test Go file of the module under root (the
// benchmark's own module, hidden directories and testdata excluded) and
// calls visit with its slash-separated path.
func walkGoFiles(t *testing.T, root string, visit func(path string, file *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "bench" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(path), file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// funcName renders a function declaration's name with its receiver.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	switch r := fn.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := r.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fn.Name.Name
		}
	case *ast.Ident:
		return r.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// importName returns the name file refers to the package at path by, or ""
// when it does not import it.
func importName(file *ast.File, path string) string {
	for _, imp := range file.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == path {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return path[strings.LastIndex(path, "/")+1:]
		}
	}
	return ""
}
