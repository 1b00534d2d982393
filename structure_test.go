// Structural guard: internal/algos has one synchronous in-process chassis.
// Every algorithm — SAPS and its dynamic-membership runs included — is a
// Recipe and a Planner handed to that chassis (DESIGN.md §2), so a second
// Algorithm implementation or a second engine.New site there is a fork of
// the assembly, and this test names it.
package sapspsgd_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

func TestAlgosHasOneChassis(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "internal/algos", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The method names of algos.Algorithm, and the types allowed to carry
	// all of them: the chassis, and the async driver's fleet should it ever.
	algorithm := []string{"Name", "Step", "Models"}
	allowed := map[string]bool{"InProc": true, "AsyncFleet": true}

	var newSites []string
	methods := map[string]map[string]bool{} // receiver type → method names
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.CallExpr:
					if sel, ok := v.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "New" {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == "engine" {
							newSites = append(newSites, fset.Position(v.Pos()).String())
						}
					}
				case *ast.FuncDecl:
					if v.Recv != nil && len(v.Recv.List) == 1 {
						recv := v.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						if id, ok := recv.(*ast.Ident); ok {
							if methods[id.Name] == nil {
								methods[id.Name] = map[string]bool{}
							}
							methods[id.Name][v.Name.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	if len(newSites) != 1 {
		t.Errorf("internal/algos calls engine.New at %d sites, want the chassis's one: %v", len(newSites), newSites)
	}
	for typ, ms := range methods {
		implements := true
		for _, m := range algorithm {
			implements = implements && ms[m]
		}
		if implements && !allowed[typ] {
			t.Errorf("internal/algos type %s implements Algorithm: build it as a Recipe and a Planner on the InProc chassis instead", typ)
		}
	}
}
