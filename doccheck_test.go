// Documentation lint: the engine, transport, scenario, and campaign
// packages are the system's public-facing layers (DESIGN.md §2–§3, §6), and
// algos and nn are the algorithms and the model library beneath them, so
// every exported identifier there must carry a doc comment and every
// package a package comment. This is the in-repo mirror of CI's staticcheck ST1000/ST1020/
// ST1022 step — it runs in the tier-1 suite, so the gate holds offline too.
package sapspsgd_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// docCheckedPackages are the directories held to the exported-docs standard.
var docCheckedPackages = []string{
	"internal/algos",
	"internal/campaign",
	"internal/engine",
	"internal/nn",
	"internal/obs",
	"internal/scenario",
	"internal/transport",
}

func TestExportedIdentifiersAreDocumented(t *testing.T) {
	for _, dir := range docCheckedPackages {
		dir := dir
		t.Run(strings.ReplaceAll(dir, "/", "_"), func(t *testing.T) {
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for name, pkg := range pkgs {
				if strings.HasSuffix(name, "_test") {
					continue
				}
				var problems []string
				hasPkgDoc := false
				for _, f := range pkg.Files {
					if f.Doc != nil {
						hasPkgDoc = true
					}
					problems = append(problems, fileDocProblems(fset, f)...)
				}
				if !hasPkgDoc {
					problems = append(problems, fmt.Sprintf("package %s has no package comment (ST1000)", name))
				}
				if len(problems) > 0 {
					t.Errorf("%s: %d undocumented exported identifier(s):\n  %s",
						dir, len(problems), strings.Join(problems, "\n  "))
				}
			}
		})
	}
}

// fileDocProblems reports exported top-level declarations without doc
// comments in one file.
func fileDocProblems(fset *token.FileSet, f *ast.File) []string {
	var out []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s is undocumented (ST1020)", p.Filename, p.Line, kind, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || receiverUnexported(d) {
				continue
			}
			if d.Doc == nil {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				report(d.Pos(), kind, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil {
						report(sp.Pos(), "type", sp.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						// A shared doc comment on the grouped decl covers
						// every name in the group (the const-block idiom).
						if n.IsExported() && d.Doc == nil && sp.Doc == nil {
							report(n.Pos(), "value", n.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// receiverUnexported reports whether a method hangs off an unexported type
// (its docs are not part of the package's godoc surface).
func receiverUnexported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return false
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr:
			t = v.X
		case *ast.Ident:
			return !v.IsExported()
		default:
			return false
		}
	}
}
