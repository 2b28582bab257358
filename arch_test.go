package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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

// sites parses every non-test Go file of the module under root (the
// benchmark's own module excluded) and returns, sorted, one
// "path function" entry for every node match accepts, function being the
// enclosing top-level declaration ("(*T).M", "F", or "package scope").
func sites(t *testing.T, root string, match func(*ast.File, ast.Node) bool) []string {
	t.Helper()
	var out []string
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
		for _, decl := range file.Decls {
			where := "package scope"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				where = funcName(fn)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if n != nil && match(file, n) {
					out = append(out, filepath.ToSlash(path)+" "+where)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(out)
	return out
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
