// Documentation lint: every package under internal/ must carry a package
// comment and a doc comment on every exported identifier. This is the in-repo
// mirror of CI's staticcheck ST1000/ST1020/ST1022 step — it runs in the
// tier-1 suite, so the gate holds offline too. The prose documents must also
// name only what exists: a backticked reference into an internal package has
// to resolve to a declaration there.
package sapspsgd_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// internalPackageDirs lists every directory under internal/ that holds Go
// files.
func internalPackageDirs(t *testing.T) []string {
	t.Helper()
	var dirs []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !slices.Contains(dirs, filepath.Dir(path)) {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no package under internal/: the lint would check nothing")
	}
	return dirs
}

func TestExportedIdentifiersAreDocumented(t *testing.T) {
	for _, dir := range internalPackageDirs(t) {
		t.Run(strings.ReplaceAll(filepath.ToSlash(dir), "/", "_"), func(t *testing.T) {
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

// docRef is a pkg.Ident or pkg.Type.Member reference: a lower-case package
// name that no path separator or file name precedes, then one or two
// identifiers.
var docRef = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./])([a-z][a-z0-9]*)\.([A-Za-z_][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?`)

// typeRef is an unqualified Type.Member reference: an upper-case identifier
// that no identifier, path or dot precedes, then a member name.
var typeRef = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./])([A-Z][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)`)

// TestDocReferencesResolve: every backticked reference into an internal
// package in DESIGN.md, README.md and EXPERIMENTS.md names a declaration of
// that package — a top-level name, or a method or field of one of its types.
// An unqualified `Type.Member` whose Type some internal package declares
// must name a method or field of that type in one of them. Test files
// count, because the documents cite tests. Names holding an underscore are
// spec keys and metric names (`gossip.t_thres`), not Go.
func TestDocReferencesResolve(t *testing.T) {
	decls := map[string]map[string]bool{} // package name → its declared names
	types := map[string][]string{}        // type name → the packages declaring it
	for _, dir := range internalPackageDirs(t) {
		names, typeNames := map[string]bool{}, map[string]bool{}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				declaredNames(f, names, typeNames)
			}
		}
		pkg := filepath.Base(dir)
		decls[pkg] = names
		for typ := range typeNames {
			types[typ] = append(types[typ], pkg)
		}
	}
	fence := regexp.MustCompile("(?s)```.*?```")
	span := regexp.MustCompile("`[^`]+`")
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range span.FindAllString(fence.ReplaceAllString(string(data), ""), -1) {
			for _, m := range docRef.FindAllStringSubmatch(code, -1) {
				names, ok := decls[m[1]]
				if !ok || strings.Contains(m[2]+m[3], "_") {
					continue
				}
				ref := m[1] + "." + m[2]
				if m[3] != "" {
					ref += "." + m[3]
				}
				if !names[m[2]] || m[3] != "" && !names[m[2]+"."+m[3]] {
					t.Errorf("%s: %s names no declaration of internal/…/%s", doc, code, ref)
				}
			}
			for _, m := range typeRef.FindAllStringSubmatch(code, -1) {
				pkgs := types[m[1]]
				if len(pkgs) == 0 || strings.Contains(m[1]+m[2], "_") {
					continue
				}
				if !slices.ContainsFunc(pkgs, func(pkg string) bool { return decls[pkg][m[1]+"."+m[2]] }) {
					t.Errorf("%s: %s names no method or field %s.%s of a type in internal/…/{%s}", doc, code, m[1], m[2], strings.Join(pkgs, ","))
				}
			}
		}
	}
}

// declaredNames adds f's top-level names to names, and Type.Member for the
// methods, struct fields and interface methods of its types; the type names
// also go to types.
func declaredNames(f *ast.File, names, types map[string]bool) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names[d.Name.Name] = true
				continue
			}
			recv := d.Recv.List[0].Type
			for {
				switch v := recv.(type) {
				case *ast.StarExpr:
					recv = v.X
					continue
				case *ast.IndexExpr:
					recv = v.X
					continue
				case *ast.IndexListExpr:
					recv = v.X
					continue
				case *ast.Ident:
					names[v.Name+"."+d.Name.Name] = true
				}
				break
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					names[sp.Name.Name] = true
					types[sp.Name.Name] = true
					var members *ast.FieldList
					switch tt := sp.Type.(type) {
					case *ast.StructType:
						members = tt.Fields
					case *ast.InterfaceType:
						members = tt.Methods
					}
					if members == nil {
						continue
					}
					for _, field := range members.List {
						for _, n := range field.Names {
							names[sp.Name.Name+"."+n.Name] = true
						}
					}
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						names[n.Name] = true
					}
				}
			}
		}
	}
}
