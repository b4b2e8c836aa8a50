package arckfs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSentinelErrorsComparedWithErrorsIs keeps the tree on one way of
// testing for a sentinel error: kernel.errBusy and friends wrap their
// sentinels with %w, so `err == fsapi.ErrBusy` is silently false exactly
// when it matters (ROADMAP item 0 was such a bug). Any ==/!= against an
// Err* name fails here; use errors.Is. The walk covers this module's
// non-testdata Go files.
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
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if be, ok := n.(*ast.BinaryExpr); ok && (be.Op == token.EQL || be.Op == token.NEQ) &&
				(isSentinel(be.X) || isSentinel(be.Y)) {
				t.Errorf("%s: sentinel error compared with %s; use errors.Is", fset.Position(be.OpPos), be.Op)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
