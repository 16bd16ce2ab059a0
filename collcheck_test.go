package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// collectiveMethods are the mpi.Comm calls whose error result reports a
// timed-out collective (a dead, stuck or partitioned peer).
var collectiveMethods = map[string]bool{
	"Barrier": true, "Allgather": true, "Allreduce": true, "Alltoall": true, "Split": true,
}

// TestNoDroppedCollectiveResult fails when non-test Go drops the error of a
// collective: a call used as a bare statement (also under go or defer), or
// assigned with a blank error result (`_ = c.Barrier(r)`,
// `v, _ := c.Allgather(r, x)`). go vet's unusedresult check cannot do this,
// since it ignores methods. The check is syntactic: any method call with a
// collective's name counts, while package functions such as strings.Split
// are told apart by the file's import names.
func TestNoDroppedCollectiveResult(t *testing.T) {
	fset := token.NewFileSet()
	seen := 0
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgs := make(map[string]bool, len(f.Imports))
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			pkgs[name] = true
		}
		isColl := func(e ast.Expr) bool {
			call, ok := ast.Unparen(e).(*ast.CallExpr)
			if !ok {
				return false
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !collectiveMethods[sel.Sel.Name] {
				return false
			}
			id, ok := sel.X.(*ast.Ident)
			return !ok || !pkgs[id.Name]
		}
		drop := func(n ast.Node) {
			t.Errorf("%s: collective error dropped", fset.Position(n.Pos()))
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.CallExpr:
				if isColl(s) {
					seen++
				}
			case *ast.ExprStmt:
				if isColl(s.X) {
					drop(s)
				}
			case *ast.GoStmt:
				if isColl(s.Call) {
					drop(s)
				}
			case *ast.DeferStmt:
				if isColl(s.Call) {
					drop(s)
				}
			case *ast.AssignStmt:
				last, ok := s.Lhs[len(s.Lhs)-1].(*ast.Ident)
				if len(s.Rhs) == 1 && ok && last.Name == "_" && isColl(s.Rhs[0]) {
					drop(s)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Guard against a walk that silently finds nothing.
	if seen < 10 {
		t.Fatalf("found only %d collective calls in non-test Go; is the walk rooted at the module?", seen)
	}
}
