package arckfs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestSentinelErrorsComparedWithErrorsIs keeps the tree on one way of
// testing for a sentinel error: kernel.errBusy and friends wrap their
// sentinels with %w, so `err == fsapi.ErrBusy` is silently false exactly
// when it matters (kernel.TestShardStressMultiApp failed at GOMAXPROCS >= 2
// on such a compare until commit 5777067). Any ==/!= against an Err* name
// fails here; use errors.Is. The walk covers this module's non-testdata Go
// files.
func TestSentinelErrorsComparedWithErrorsIs(t *testing.T) {
	sentinel := regexp.MustCompile(`^Err[A-Z]`)
	isSentinel := func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.Ident:
			return sentinel.MatchString(x.Name)
		case *ast.SelectorExpr:
			return sentinel.MatchString(x.Sel.Name)
		}
		return false
	}
	walkModuleGo(t, func(fset *token.FileSet, _ string, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			if be, ok := n.(*ast.BinaryExpr); ok && (be.Op == token.EQL || be.Op == token.NEQ) &&
				(isSentinel(be.X) || isSentinel(be.Y)) {
				t.Errorf("%s: sentinel error compared with %s; use errors.Is", fset.Position(be.OpPos), be.Op)
			}
			return true
		})
	})
}

// TestOnlyTheKernelClearsDirtyBits keeps a page's dirty bit what a PTE
// dirty bit is: every store sets it and only the kernel clears it. Whoever
// else could clear one could hide a store from the next directory
// verification, which takes a clean page from its baseline unread. So
// pmem.Device.ClearDirty is named only in internal/kernel, in
// internal/pmem's tests, and in the verifier tests' fake kernel view; and
// recovery, which trusts no bit, names no dirty-bit method at all.
func TestOnlyTheKernelClearsDirtyBits(t *testing.T) {
	const recovery = "internal/kernel/recover.go"
	mayClear := func(path string) bool {
		return strings.HasPrefix(path, "internal/kernel/") && path != recovery ||
			strings.HasPrefix(path, "internal/pmem/") && strings.HasSuffix(path, "_test.go") ||
			path == "internal/verifier/verifier_test.go"
	}
	seen := 0
	walkModuleGo(t, func(fset *token.FileSet, path string, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch name := sel.Sel.Name; {
			case name == "ClearDirty":
				seen++
				if !mayClear(path) {
					t.Errorf("%s: %s outside the kernel", fset.Position(sel.Sel.Pos()), name)
				}
			case path == recovery && (name == "Dirty" || name == "CleanPage"):
				t.Errorf("%s: recovery reads dirty bits (%s)", fset.Position(sel.Sel.Pos()), name)
			}
			return true
		})
	})
	if seen == 0 {
		t.Error("no use of ClearDirty found: the rule checks nothing")
	}
}

// walkModuleGo parses every Go file of this module — tests included,
// testdata, dot-directories and nested modules (benchmark/) excluded —
// and hands each to fn with its slash-separated path.
func walkModuleGo(t *testing.T, fn func(fset *token.FileSet, path string, file *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if _, statErr := os.Stat(filepath.Join(path, "go.mod")); path != "." && statErr == nil {
				return filepath.SkipDir // another module (benchmark/)
			}
			if name := d.Name(); name == "testdata" || (path != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		fn(fset, filepath.ToSlash(path), file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOptionFieldsAreSet keeps the option structs honest: every exported
// field is set somewhere in the module — a keyed composite literal of
// that type, or an assignment through a variable declared with it —
// other than in the struct's own fill(). A field nobody sets has one
// value in use: make it a constant.
func TestOptionFieldsAreSet(t *testing.T) {
	structs := []string{"core.Config", "kernel.Options", "libfs.Options", "htable.Options",
		"experiments.Config"}
	fields := map[string][]string{} // struct -> its exported fields
	set := map[string]bool{}        // "struct.Field" -> set somewhere
	walkModuleGo(t, func(_ *token.FileSet, path string, file *ast.File) {
		// name resolves a type expression to one of structs: pkg.T as
		// written (nobody aliases these imports), bare T inside pkg.
		name := func(e ast.Expr) string {
			s := types.ExprString(e)
			if !strings.Contains(s, ".") {
				s = filepath.Base(filepath.Dir(path)) + "." + s
			}
			if slices.Contains(structs, s) {
				return s
			}
			return ""
		}
		// declared finds the first of structs spelled in a declaration: a
		// parameter or receiver, a var, the literal a := assigns.
		declared := func(decl any) (s string) {
			if n, ok := decl.(ast.Node); ok {
				ast.Inspect(n, func(n ast.Node) bool {
					if e, ok := n.(ast.Expr); ok && s == "" {
						s = name(e)
					}
					return s == ""
				})
			}
			return s
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "fill" && fd.Recv != nil && declared(fd.Recv) != "" {
				continue // defaults are not uses
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.TypeSpec:
					if st, ok := x.Type.(*ast.StructType); ok && name(x.Name) != "" {
						for _, f := range st.Fields.List {
							for _, id := range f.Names {
								if id.IsExported() {
									fields[name(x.Name)] = append(fields[name(x.Name)], id.Name)
								}
							}
						}
					}
				case *ast.CompositeLit:
					st := name(x.Type)
					for _, elt := range x.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok && st != "" {
							set[st+"."+kv.Key.(*ast.Ident).Name] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							if id, ok := sel.X.(*ast.Ident); ok && id.Obj != nil {
								if st := declared(id.Obj.Decl); st != "" {
									set[st+"."+sel.Sel.Name] = true
								}
							}
						}
					}
				}
				return true
			})
		}
	})
	for _, st := range structs {
		if len(fields[st]) == 0 {
			t.Errorf("%s: struct not found", st)
		}
		for _, f := range fields[st] {
			if !set[st+"."+f] {
				t.Errorf("%s.%s is set nowhere outside fill(): one value in use, make it a constant", st, f)
			}
		}
	}
}
