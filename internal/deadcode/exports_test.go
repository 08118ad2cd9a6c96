// Package deadcode holds a repository-wide check, run by `go test ./...`:
// every exported function and method declared in a non-test file under
// internal/ must be named by some non-test file of the repository, and
// every unexported top-level function by some non-test file of its own
// package. A function only tests call is dead weight in the package it
// lives in: delete it, or list it in allowlist with the reason it stays.
// Unexported methods are not checked: methods are matched by name alone,
// so a method name some other type uses would hide a dead one.
package deadcode

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// module is the import path of the repository root (go.mod).
const module = "lfrc"

// allowlist names the functions that stay although no non-test file names
// them: "pkg.Func" for a function, "pkg.Type.Method" for a method, and
// "pkg" for every function of a package. pkg is the path below internal/.
// An entry that names no export, or an export some non-test file names
// after all, fails the test too, so the list cannot go stale.
var allowlist = map[string]string{
	// Test substrates: packages whose only clients are other packages' tests.
	"explore": "schedule explorer; its clients are the exploration tests",
	"linear":  "linearizability checker; its clients are the structure tests",

	// Test seams: options and hooks production code leaves unset.
	"dcas.WithStep":            "explorer scheduling hook; production engines leave it nil",
	"dcas.WithPoolSize":        "tests shrink the MCAS descriptor pool so claims collide",
	"obs.WithStripes":          "tests pin the recorder's stripe count",
	"obs.WithRingSize":         "tests shrink the event ring to force wraparound",
	"contend.WithStripes":      "tests pin the contention table's stripe count",
	"contend.WithCapacity":     "tests shrink the hot-cell table to force drops",
	"contend.WithHalfLife":     "tests pin the heatmap's decay",
	"core.WithSplitWeights":    "tests use tiny split weights to reach the refill and merge boundaries",
	"gcdep.WithValueClaiming":  "tests and the explorer build the value-claiming GC-dependent deque",
	"gcdep.WithBeforeDCAS":     "stall-injection hook of the E4 tests",
	"lifecycle.WithLeakEpochs": "tests shorten the auditor's leak threshold",
	"lifecycle.WithMaxTracked": "tests shrink the ledger's track table",
	"lifecycle.WithMaxEvents":  "tests shrink a timeline's event bound",

	// Test probes and oracles: read-only views tests check the code against.
	// (A method only the standard library calls, such as a String or
	// MarshalJSON that nothing names, belongs here too, with the interface
	// it implements as its reason.)
	"core.RC.Copy":            "LFRCCopy, one of the paper's Figure 2 operations; the structures hand counts along instead, and the core tests run it",
	"fault.Injector.Would":    "pure replay predicate the determinism tests check schedules against",
	"hist.Duration.BucketFor": "pins the documented bucket bounds in tests",
	"lifecycle.Ledger.Wants":  "tests probe the ledger's tracked set",
	"msqueue.NewGoQueue":      "GC-dependent reference queue the MS-queue tests compare against",
}

// export is one exported function or method, or one unexported top-level
// function, declared under internal/.
type export struct {
	pkg  string // import path
	recv string // receiver type name; "" for a function
	name string
	pos  token.Position
}

// key is the export's allowlist key.
func (e export) key() string {
	k := strings.TrimPrefix(e.pkg, module+"/internal/")
	if e.recv != "" {
		k += "." + e.recv
	}
	return k + "." + e.name
}

// file is one parsed Go file with the package it belongs to.
type file struct {
	pkg  string // import path
	ast  *ast.File
	test bool
}

func TestEveryInternalExportHasACaller(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repository root not found: %v", err)
	}
	fset := token.NewFileSet()
	files, pkgNames := parseTree(t, fset, root)

	var exports []export
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.pkg, module+"/internal/") {
			continue
		}
		exports = append(exports, declaredExports(fset, f)...)
	}
	if len(exports) == 0 {
		t.Fatal("found no exports under internal/; is the tree walk broken?")
	}

	funcs, methods := namesUsed(files, pkgNames)
	matched := map[string]bool{}
	for _, e := range exports {
		used := funcs[e.pkg+"."+e.name]
		if e.recv != "" {
			used = methods[e.name]
		}
		if k, ok := allowed(e); ok {
			matched[k] = true
			if used && k == e.key() {
				t.Errorf("%s: %s is named by a non-test file; remove it from allowlist", e.pos, k)
			}
			continue
		}
		if !used && token.IsExported(e.name) {
			t.Errorf("%s: %s is exported but no non-test file names it; delete it or add it to allowlist with a reason",
				e.pos, e.key())
		} else if !used {
			t.Errorf("%s: %s is unexported and no non-test file of its package names it; delete it or add it to allowlist with a reason",
				e.pos, e.key())
		}
	}
	for k := range allowlist {
		if !matched[k] {
			t.Errorf("allowlist entry %q names no export under internal/", k)
		}
	}
}

// allowed returns the allowlist key that covers e: its own, or its
// package's.
func allowed(e export) (string, bool) {
	k := e.key()
	if _, ok := allowlist[k]; ok {
		return k, true
	}
	pkg, _, _ := strings.Cut(k, ".")
	_, ok := allowlist[pkg]
	return pkg, ok
}

// parseTree parses every Go file under root, skipping hidden directories and
// testdata, and returns the files plus each import path's package name.
func parseTree(t *testing.T, fset *token.FileSet, root string) ([]file, map[string]string) {
	t.Helper()
	var files []file
	pkgNames := map[string]string{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(rel))
		test := strings.HasSuffix(name, "_test.go")
		if !test {
			pkgNames[pkg] = f.Name.Name
		}
		files = append(files, file{pkg: pkg, ast: f, test: test})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, pkgNames
}

// declaredExports lists the exported functions and methods f declares, and
// its unexported top-level functions other than init.
func declaredExports(fset *token.FileSet, f file) []export {
	var out []export
	for _, d := range f.ast.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || !fd.Name.IsExported() && (fd.Recv != nil || fd.Name.Name == "init" || fd.Name.Name == "_") {
			continue
		}
		e := export{pkg: f.pkg, name: fd.Name.Name, pos: fset.Position(fd.Pos())}
		if fd.Recv != nil {
			e.recv = recvName(fd.Recv.List[0].Type)
		}
		out = append(out, e)
	}
	return out
}

// recvName returns the type name of a method receiver, without pointer or
// type parameters.
func recvName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// namesUsed scans the non-test files for names. funcs holds "importpath.Name"
// for every package-level name a file refers to, qualified (pkg.Name) or
// from inside its own package; methods holds every name selected with x.Name
// on something other than an imported package. Method names are matched by
// name alone, so a method counts as used when any type's method of that name
// is: the check finds dead exports, it does not prove the live ones live.
func namesUsed(files []file, pkgNames map[string]string) (funcs, methods map[string]bool) {
	funcs, methods = map[string]bool{}, map[string]bool{}
	for _, f := range files {
		if f.test {
			continue
		}
		imports := map[string]string{} // local name -> import path
		for _, im := range f.ast.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			local := pkgNames[p]
			if local == "" {
				local = path.Base(p)
			}
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = p
		}
		declared := map[*ast.Ident]bool{}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				declared[fd.Name] = true
			}
		}
		selected := map[*ast.Ident]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel] = true
				if id, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[id.Name]; ok {
						funcs[p+"."+n.Sel.Name] = true
						return true
					}
				}
				methods[n.Sel.Name] = true
			case *ast.Ident:
				if !selected[n] && !declared[n] {
					funcs[f.pkg+"."+n.Name] = true
				}
			}
			return true
		})
	}
	return funcs, methods
}
