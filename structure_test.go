// Structural guards: shapes earlier simplifications collapsed the code into,
// each named by the test that fails when it regrows.
package sapspsgd_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sapspsgd/internal/algos"
)

// notTestFile is the parser.ParseDir filter for a package's product sources.
func notTestFile(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }

// TestAlgosHasOneChassis: internal/algos has one synchronous in-process
// chassis. Every algorithm — SAPS and its dynamic-membership runs included —
// is a Recipe and a Planner handed to that chassis (DESIGN.md §2), so a
// second Algorithm implementation or a second engine.New site there is a
// fork of the assembly.
func TestAlgosHasOneChassis(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "internal/algos", notTestFile, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The method names of algos.Algorithm, and the types allowed to carry
	// all of them: the chassis, and the async driver's fleet should it ever.
	algorithm := []string{"Step", "Models"}
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

// TestInternalPackagesHaveProductImporters: a package under internal/ that
// only tests import is test support compiled into the build — it belongs in
// _test.go files beside the tests that use it (as the ρ(E[WᵀW]) oracle sits
// beside the gossip tests). The benchmark module and anything a build leaves
// behind in a dot-directory are not this module's product code.
func TestInternalPackagesHaveProductImporters(t *testing.T) {
	fset := token.NewFileSet()
	imported := map[string]bool{}
	packages := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		if dir := filepath.ToSlash(filepath.Dir(path)); strings.HasPrefix(dir, "internal/") && f.Name.Name != "main" {
			packages[dir] = true
		}
		for _, imp := range f.Imports {
			if dir, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), "sapspsgd/"); ok {
				imported[dir] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(packages) == 0 {
		t.Fatal("found no packages under internal/ — run from the module root")
	}
	for dir := range packages {
		if !imported[dir] {
			t.Errorf("%s has no non-test importer: move it into the _test.go files that use it", dir)
		}
	}
}

// TestOneComparator: benchmark/ is the only thing that compares two commits,
// and cmd/campaign the only thing that runs or sweeps scenarios. cmd/ holds
// the three product commands and no measurement harness, second sweeper or
// single-scenario runner, and
// internal/scenario has neither a summary differ nor a summary schema of its
// own (a sweep's results are a campaign's aggregate.json).
func TestOneComparator(t *testing.T) {
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var cmds []string
	for _, e := range entries {
		cmds = append(cmds, e.Name())
	}
	if got, want := strings.Join(cmds, " "), "campaign coordinator worker"; got != want {
		t.Errorf("cmd/ holds %q, want %q", got, want)
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "internal/scenario", notTestFile, 0)
	if err != nil {
		t.Fatal(err)
	}
	sweepSchema := map[string]bool{"BenchFile": true, "ScenarioSweep": true, "BenchSchemaVersion": true}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.FuncDecl:
					if v.Recv == nil && v.Name.Name == "Diff" {
						t.Errorf("%s: internal/scenario exports Diff — compare runs with benchmark -compare", fset.Position(v.Pos()))
					}
				case *ast.TypeSpec:
					if sweepSchema[v.Name.Name] {
						t.Errorf("%s: internal/scenario declares %s — sweep a directory of specs with a campaign", fset.Position(v.Pos()), v.Name.Name)
					}
				case *ast.ValueSpec:
					for _, name := range v.Names {
						if sweepSchema[name.Name] {
							t.Errorf("%s: internal/scenario declares %s — sweep a directory of specs with a campaign", fset.Position(v.Pos()), name.Name)
						}
					}
				}
				return true
			})
		}
	}
}

// TestOneFrontDoor: a run is described one way — a scenario spec, swept by a
// campaign (cmd/campaign) or deployed over TCP (cmd/coordinator, cmd/worker).
// A product package at the module root would be a second, hand-assembled
// description of the same runs, and examples/ its programs.
func TestOneFrontDoor(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			t.Errorf("%s: the module root holds product code — write a spec under campaigns/ or a package under internal/", name)
		}
	}
	if _, err := os.Stat("examples"); err == nil {
		t.Error("examples/ exists: an example is a committed campaign under campaigns/")
	}
}

// productFiles parses every non-test .go file under dir.
func productFiles(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	var files []*ast.File
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		files = append(files, f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestOneTrainer: "local SGD on D_p" is the one thing every algorithm shares,
// so one type holds {model, optimizer, loader} (core.Trainer) and one function
// pair lays out its round-boundary state — Trainer.AppendState / ReadState:
// checkpoint, loader cursor, velocity, as sections of one blob. A second
// struct with an *nn.SGD beside a *dataset.Loader is a second trainer; a
// {Model, Loader, Velocity} struct is a second copy of the snapshot format
// (the one snapshot format 1 ran through gob).
func TestOneTrainer(t *testing.T) {
	fset := token.NewFileSet()
	var trainers, states []string
	for _, f := range productFiles(t, fset, "internal") {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			types, names := map[string]bool{}, map[string]bool{}
			for _, field := range st.Fields.List {
				if star, ok := field.Type.(*ast.StarExpr); ok {
					if sel, ok := star.X.(*ast.SelectorExpr); ok {
						types[sel.X.(*ast.Ident).Name+"."+sel.Sel.Name] = true
					}
				}
				for _, name := range field.Names {
					names[name.Name] = true
				}
			}
			at := fset.Position(ts.Pos()).String() + " " + ts.Name.Name
			if types["nn.SGD"] && types["dataset.Loader"] {
				trainers = append(trainers, at)
			}
			if len(names) == 3 && names["Model"] && names["Loader"] && names["Velocity"] {
				states = append(states, at)
			}
			return true
		})
	}
	if len(trainers) != 1 {
		t.Errorf("%d struct types hold an *nn.SGD and a *dataset.Loader, want core.Trainer alone: %v", len(trainers), trainers)
	}
	if len(states) != 0 {
		t.Errorf("%d struct types are {Model, Loader, Velocity}, want none beside Trainer.AppendState's layout: %v", len(states), states)
	}
}

// TestOneMixingRowBuilder: d-psgd, dcd-psgd and the recipe's topology seam
// take their mixing weights from one function (algos.metropolisRow; the ring's
// 1/3 is its value there), and the topology generators that only tests call
// live in _test.go files, not in a package of the build.
func TestOneMixingRowBuilder(t *testing.T) {
	fset := token.NewFileSet()
	weights := regexp.MustCompile(`(?i)metropolis|weights`)
	var builders []string
	for _, f := range productFiles(t, fset, "internal/algos") {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncDecl:
				if weights.MatchString(v.Name.Name) {
					builders = append(builders, fset.Position(v.Pos()).String()+" "+v.Name.Name)
				}
			case *ast.Ident:
				if v.Name == "ringWeights" {
					t.Errorf("%s: ringWeights is back — the ring's rows are metropolisRow over ringAdjacency", fset.Position(v.Pos()))
				}
			}
			return true
		})
	}
	if len(builders) != 1 {
		t.Errorf("internal/algos has %d functions building mixing weights, want metropolisRow alone: %v", len(builders), builders)
	}
	if _, err := os.Stat("internal/topology"); err == nil {
		t.Error("internal/topology exists: the topology generators are test support, they belong in the _test.go files that use them")
	}
}

// TestEngineBuildsOneWay: the engine's source does not fork on the toolchain
// (one finalizer serves every Go version go.mod admits), and the simulated
// backend is memtransport under a netsim.Ledger, not a third transport
// package wrapping the two.
func TestEngineBuildsOneWay(t *testing.T) {
	fset := token.NewFileSet()
	for _, f := range productFiles(t, fset, "internal/engine") {
		for _, group := range f.Comments {
			for _, c := range group.List {
				if strings.HasPrefix(c.Text, "//go:build") && strings.Contains(c.Text, "go1.") {
					t.Errorf("%s: %s — a toolchain fork in the engine", fset.Position(c.Pos()), c.Text)
				}
			}
		}
	}
	if _, err := os.Stat("internal/engine/simtransport"); err == nil {
		t.Error("internal/engine/simtransport exists: call memtransport.NewHub and netsim.NewLedger")
	}
}

// TestOneRoundDriver: engine.Driver.Round is the only thing in the product
// that charges a ledger and engine.NewDriver the only thing that builds one
// (TestOneBandwidthStorage pins the one environment clock). A planner-only
// run, the sharded engine and the TCP coordinator differ in the Control they
// hand the driver, never in the loop around it — so the scenario layer, the
// TCP transport and the commands call neither Exchange nor EndRound
// (algos.hubLedger forwards the driver's own calls; the async engine has no
// rounds), and nobody outside internal/engine writes a Driver literal (which
// would also skip the engine_* counters).
func TestOneRoundDriver(t *testing.T) {
	fset := token.NewFileSet()
	under := func(f *ast.File, dirs ...string) bool {
		name := filepath.ToSlash(fset.Position(f.Pos()).Filename)
		for _, dir := range dirs {
			if strings.HasPrefix(name, dir+"/") {
				return true
			}
		}
		return false
	}
	var files []*ast.File
	for _, dir := range []string{"cmd", "internal"} {
		files = append(files, productFiles(t, fset, dir)...)
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				sel, ok := v.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if name := sel.Sel.Name; name == "Exchange" || name == "EndRound" {
					if under(f, "internal/scenario", "internal/transport", "cmd") {
						t.Errorf("%s: .%s( outside the driver — hand engine.Driver a Control instead", fset.Position(v.Pos()), name)
					}
				}
			case *ast.CompositeLit:
				if sel, ok := v.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Driver" {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "engine" {
						t.Errorf("%s: engine.Driver{ literal — call engine.NewDriver", fset.Position(v.Pos()))
					}
				}
			}
			return true
		})
	}
}

// TestOneBandwidthStorage: a link is one slot in one array whatever the fleet
// size, and one type advances it between rounds. netsim.Bandwidth is the CSR
// layout plus the count of its in-place rewrites and nothing else (a second
// field set is a second storage mode, a Sparse method the fork on it), and
// netsim.RoundEnv — base, jitter and per-node multipliers in one rewrite — is
// the only type with a Tick. RoundEnv.rewrite is the one function that
// writes the count: a second writer is a second way to rewrite the speeds,
// or a Revision that moves without them, and either leaves a planner's kept
// B* list wrong.
func TestOneBandwidthStorage(t *testing.T) {
	fset := token.NewFileSet()
	for _, f := range productFiles(t, fset, "internal/netsim") {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || ts.Name.Name != "Bandwidth" {
						continue
					}
					st := ts.Type.(*ast.StructType)
					var fields []string
					for _, fl := range st.Fields.List {
						for _, name := range fl.Names {
							fields = append(fields, name.Name)
						}
					}
					if got := strings.Join(fields, " "); got != "N off nbr wts rev" {
						t.Errorf("%s: netsim.Bandwidth has fields {%s}, want the one CSR layout and its rewrite count {N off nbr wts rev}", fset.Position(ts.Pos()), got)
					}
				}
			case *ast.FuncDecl:
				name, on := d.Name.Name, ""
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					on = recv.(*ast.Ident).Name
					name = on + "." + name
				}
				if name != "RoundEnv.rewrite" {
					for _, pos := range revWrites(d.Body) {
						t.Errorf("%s: %s writes Bandwidth.rev — only RoundEnv.rewrite rewrites a built environment", fset.Position(pos), name)
					}
				}
				if d.Recv == nil {
					continue
				}
				if d.Name.Name == "Sparse" && on == "Bandwidth" {
					t.Errorf("%s: Bandwidth.Sparse is back — there is no other mode to tell apart", fset.Position(d.Pos()))
				}
				if d.Name.Name == "Tick" && on != "RoundEnv" {
					t.Errorf("%s: %s.Tick — a second environment clock; add the factor to RoundEnv.rewrite", fset.Position(d.Pos()), on)
				}
			}
		}
	}
}

// revWrites returns where body assigns, increments or decrements a field
// named rev, or sets one in a composite literal.
func revWrites(body *ast.BlockStmt) []token.Pos {
	if body == nil {
		return nil
	}
	isRev := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "rev"
	}
	var at []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if isRev(lhs) {
					at = append(at, lhs.Pos())
				}
			}
		case *ast.IncDecStmt:
			if isRev(v.X) {
				at = append(at, v.Pos())
			}
		case *ast.KeyValueExpr:
			if id, ok := v.Key.(*ast.Ident); ok && id.Name == "rev" {
				at = append(at, v.Pos())
			}
		}
		return true
	})
	return at
}

// TestOneEventSimulator: the engine's barrier-free driver is the one event
// simulator, so only it and the queue's own file name netsim.EventQueue. A
// synchronous round is the paper's per-round account (netsim.Ledger), with no
// event timeline beside it. Both time models are bandwidth only: a latency
// knob nothing sets is an option with one value.
func TestOneEventSimulator(t *testing.T) {
	fset := token.NewFileSet()
	queueFiles := map[string]bool{"internal/netsim/events.go": true, "internal/engine/async.go": true}
	for _, dir := range []string{"cmd", "internal"} {
		for _, f := range productFiles(t, fset, dir) {
			name := filepath.ToSlash(fset.Position(f.Pos()).Filename)
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				switch {
				case id.Name == "EventQueue" && !queueFiles[name]:
					t.Errorf("%s: names EventQueue — a second event timeline; run barrier-free work on engine.NewAsync", fset.Position(id.Pos()))
				case id.Name == "LatencySec":
					t.Errorf("%s: names LatencySec — the time model is bytes over bandwidth", fset.Position(id.Pos()))
				}
				return true
			})
		}
	}
}

// TestAssemblyIsBitTransparent: the only assembly is internal/tensor's
// vector kernels, which give the scalar loops' bits (DESIGN §8 "Compute
// kernels"). Every .s file and every Go file declaring a body-less function
// beside it is left out of a purego build, where the scalar loops run
// alone, and no .s file names a fused multiply-add: one rounding instead of
// two is a different bit.
func TestAssemblyIsBitTransparent(t *testing.T) {
	// A constraint excludes purego when it is false with purego set on the
	// platform the assembly targets.
	excludesPurego := func(file string, src []byte) {
		var expr constraint.Expr
		for _, line := range strings.Split(string(src), "\n") {
			if constraint.IsGoBuild(line) {
				var err error
				if expr, err = constraint.Parse(line); err != nil {
					t.Errorf("%s: %v", file, err)
					return
				}
				break
			}
		}
		if expr == nil {
			t.Errorf("%s: no //go:build line — a purego build must leave it out", file)
			return
		}
		set := map[string]bool{"purego": true, "amd64": true, "arm64": true, "linux": true, "gc": true}
		if expr.Eval(func(tag string) bool { return set[tag] || strings.HasPrefix(tag, "go1.") }) {
			t.Errorf("%s: //go:build %s keeps it in a purego build", file, expr)
		}
	}
	fma := regexp.MustCompile(`\bVFN?M(ADD|SUB)\w*`)
	dirs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".s") {
			if d != nil && d.IsDir() && d.Name() == ".git" {
				return filepath.SkipDir
			}
			return err
		}
		path = filepath.ToSlash(path)
		if filepath.Dir(path) != "internal/tensor" {
			t.Errorf("%s: assembly outside internal/tensor — vector kernels live beside their scalar oracles", path)
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		excludesPurego(path, src)
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			if m := fma.FindString(code); m != "" {
				t.Errorf("%s:%d: %s is a fused multiply-add — the scalar loops round the product and the sum apart", path, i+1, m)
			}
		}
		dirs[filepath.Dir(path)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dirs["internal/tensor"] {
		t.Error("internal/tensor holds no .s file: the guard would check nothing")
	}
	fset := token.NewFileSet()
	for dir := range dirs {
		for _, f := range productFiles(t, fset, dir) {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body == nil {
					name := fset.Position(f.Pos()).Filename
					src, err := os.ReadFile(name)
					if err != nil {
						t.Fatal(err)
					}
					excludesPurego(filepath.ToSlash(name), src)
					break
				}
			}
		}
	}
}

// TestOneSpecVocabulary: a TCP fleet runs a scenario spec, the description
// every in-process run reads, so the coordinator's command line carries where
// to listen and when to give up, not a second copy of the spec's fields. The
// older task type survives only as the benchmark's shim inside
// internal/transport (TaskSpec.Spec converts it), and no other product file
// names it.
func TestOneSpecVocabulary(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"cmd", "internal"} {
		for _, f := range productFiles(t, fset, dir) {
			name := filepath.ToSlash(fset.Position(f.Pos()).Filename)
			if strings.HasPrefix(name, "internal/transport/") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "TaskSpec" {
					t.Errorf("%s: names TaskSpec — describe the run with a scenario.Spec", fset.Position(id.Pos()))
				}
				return true
			})
		}
	}
	defines := regexp.MustCompile(`^(Bool|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var)(Var|Func)?$`)
	var flags []string
	for _, f := range productFiles(t, fset, "cmd/coordinator") {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && defines.MatchString(sel.Sel.Name) {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "flag" {
					name := "?"
					for _, arg := range call.Args {
						if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							name = lit.Value
							break
						}
					}
					flags = append(flags, name)
				}
			}
			return true
		})
	}
	if len(flags) > 8 {
		t.Errorf("cmd/coordinator registers %d flags of its own, want at most 8 — the run's settings are the spec's fields: %s", len(flags), strings.Join(flags, " "))
	}
}

// TestOneAlgorithmVocabulary: a spec's algo string is the only name an
// algorithm has, and internal/algos the only package that branches on it —
// a caller asks the Recipe (RatioField, Adaptive, Pairwise, AnyPair, Async,
// Hub) instead, so a new algorithm is one recipe with no edit elsewhere. No
// product file under cmd/ or internal/ outside internal/algos holds a string
// literal equal to an algorithm's name. The one exception is the benchmark's
// TaskSpec shim in internal/transport/messages.go, whose empty Algo means
// saps.
func TestOneAlgorithmVocabulary(t *testing.T) {
	names := map[string]bool{}
	for _, algo := range algos.AlgoNames {
		names[algo] = true
	}
	fset := token.NewFileSet()
	checked := 0
	for _, dir := range []string{"cmd", "internal"} {
		for _, f := range productFiles(t, fset, dir) {
			file := filepath.ToSlash(fset.Position(f.Pos()).Filename)
			if strings.HasPrefix(file, "internal/algos/") || file == "internal/transport/messages.go" {
				continue
			}
			checked++
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				if v, err := strconv.Unquote(lit.Value); err == nil && names[v] {
					t.Errorf("%s: the literal %s names an algorithm — ask its algos.Recipe instead", fset.Position(lit.Pos()), lit.Value)
				}
				return true
			})
		}
	}
	if checked == 0 {
		t.Error("no product file checked: the guard would check nothing")
	}
}

// TestOneEncoding: every byte a run persists or sends is a frame of sections
// whose words internal/tensor/words.go lays out (DESIGN.md §3) — snapshots,
// peer payloads and the coordinator's control messages alike. encoding/gob,
// whose bytes depend on what the process encoded before and whose decoder
// sizes allocations from lengths the sender claims, is imported by no Go
// file of the module or of benchmark/, tests included.
func TestOneEncoding(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			if d != nil && d.IsDir() && d.Name() == ".git" {
				return filepath.SkipDir
			}
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if imp.Path.Value == `"encoding/gob"` {
				t.Errorf("%s imports encoding/gob: lay the value out as frame sections instead", filepath.ToSlash(path))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Error("no Go file found: the guard would check nothing")
	}
}

// TestOneCoordinatorSide: who is planned in round t is decided by one type,
// algos.RoundPlanner, in process and over TCP alike (DESIGN.md §3) — it steps
// the membership, ANDs in liveness and runs Algorithm 3 over the result. So
// no product file under cmd/ or internal/ outside internal/algos calls
// PlanActive (internal/core, which defines it, excepted: its Plan is
// PlanActive over everyone) or declares an interface method by that name,
// names algos.MembershipStream, or builds one with a two-argument .Stream(
// call (Membership.Stream(n, seed)) it could Step.
func TestOneCoordinatorSide(t *testing.T) {
	fset := token.NewFileSet()
	checked := 0
	for _, dir := range []string{"cmd", "internal"} {
		for _, f := range productFiles(t, fset, dir) {
			file := filepath.ToSlash(fset.Position(f.Pos()).Filename)
			if strings.HasPrefix(file, "internal/algos/") {
				continue
			}
			checked++
			ast.Inspect(f, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.SelectorExpr:
					switch {
					case v.Sel.Name == "PlanActive" && !strings.HasPrefix(file, "internal/core/"):
						t.Errorf("%s: PlanActive outside internal/algos — plan through algos.RoundPlanner", fset.Position(v.Pos()))
					case v.Sel.Name == "MembershipStream":
						t.Errorf("%s: algos.MembershipStream outside internal/algos — algos.RoundPlanner steps the membership", fset.Position(v.Pos()))
					}
				case *ast.CallExpr:
					if sel, ok := v.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Stream" && len(v.Args) == 2 {
						t.Errorf("%s: a membership stream built outside internal/algos — algos.RoundPlanner steps the membership", fset.Position(v.Pos()))
					}
				case *ast.InterfaceType:
					for _, m := range v.Methods.List {
						for _, name := range m.Names {
							if name.Name == "PlanActive" {
								t.Errorf("%s: an interface with PlanActive outside internal/algos — plan through algos.RoundPlanner", fset.Position(name.Pos()))
							}
						}
					}
				}
				return true
			})
		}
	}
	if checked == 0 {
		t.Error("no product file checked: the guard would check nothing")
	}
}

// TestOneRoundBoundary: a TCP worker keeps its round-boundary state once
// (DESIGN.md §3). The state each RoundMsg finds is committed by the one
// method WorkerClient.commit, which is both the rollback target every Abort
// restores and the snapshot on disk; so in internal/transport's product files
// engine.CaptureRank and SaveWorkerSnapshot are each called exactly once,
// inside that method.
func TestOneRoundBoundary(t *testing.T) {
	fset := token.NewFileSet()
	calls := map[string]int{}
	for _, f := range productFiles(t, fset, "internal/transport") {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			commit := fn.Recv != nil && fn.Name.Name == "commit" && types.ExprString(fn.Recv.List[0].Type) == "*WorkerClient"
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name := types.ExprString(call.Fun); name == "engine.CaptureRank" || name == "SaveWorkerSnapshot" {
					calls[name]++
					if !commit {
						t.Errorf("%s: %s outside WorkerClient.commit — commit the round boundary there", fset.Position(call.Pos()), name)
					}
				}
				return true
			})
		}
	}
	for _, name := range []string{"engine.CaptureRank", "SaveWorkerSnapshot"} {
		if calls[name] != 1 {
			t.Errorf("%d calls to %s in internal/transport, want exactly one, in WorkerClient.commit", calls[name], name)
		}
	}
}

// TestOnePeerPath: a TCP worker reaches its peers one way (DESIGN.md §3).
// Training payloads and the measurement phase's probes are frames on the same
// cached connections, read by the same per-connection reader into the same
// inbox. So in internal/transport's product files the net.Dial functions
// (net.Dial, net.DialTimeout, …) are called exactly twice, in dialConn (the
// control plane) and (*outbound).conn (the data plane), and engine.ReadFrame
// exactly twice, in (*Conn).Recv and (*WorkerClient).readPeer.
func TestOnePeerPath(t *testing.T) {
	want := map[string]string{
		"net.Dial":         "(*outbound).conn dialConn",
		"engine.ReadFrame": "(*Conn).Recv (*WorkerClient).readPeer",
	}
	sites := map[string][]string{}
	fset := token.NewFileSet()
	for _, f := range productFiles(t, fset, "internal/transport") {
		for _, decl := range f.Decls {
			site := "package level"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				site = fn.Name.Name
				if fn.Recv != nil {
					site = "(" + types.ExprString(fn.Recv.List[0].Type) + ")." + site
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					name := types.ExprString(call.Fun)
					if strings.HasPrefix(name, "net.Dial") {
						name = "net.Dial"
					}
					if _, ok := want[name]; ok {
						sites[name] = append(sites[name], site)
					}
				}
				return true
			})
		}
	}
	for name, w := range want {
		slices.Sort(sites[name])
		if got := strings.Join(sites[name], " "); got != w {
			t.Errorf("internal/transport calls %s in [%s], want exactly [%s]: peers are reached over the data plane's connections, reader and inbox", name, got, w)
		}
	}
}

// TestOneMaskForm: a round mask is the ascending positions of its ones
// (DESIGN.md §8 "Vectorized codecs"), drawn by one loop. No product file
// outside internal/compress calls the n-entry 0/1 view (MaskInto) or counts
// its ones (CountOnes); internal/rng exports one mask function, holds no
// []bool, and has exactly one loop that tests 53-bit draws (a `>> 11`).
func TestOneMaskForm(t *testing.T) {
	fset := token.NewFileSet()
	checked := 0
	for _, dir := range []string{"cmd", "internal"} {
		for _, f := range productFiles(t, fset, dir) {
			file := filepath.ToSlash(fset.Position(f.Pos()).Filename)
			if strings.HasPrefix(file, "internal/compress/") {
				continue
			}
			checked++
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "MaskInto" || sel.Sel.Name == "CountOnes") {
					t.Errorf("%s: %s outside internal/compress — a round mask is its positions (compress.MaskIndices)", fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
	if checked == 0 {
		t.Error("no product file checked: the guard would check nothing")
	}

	var maskFuncs []string
	drawLoops := 0
	for _, f := range productFiles(t, fset, "internal/rng") {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.IsExported() && strings.Contains(fn.Name.Name, "Mask") {
				maskFuncs = append(maskFuncs, fn.Name.Name)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.ArrayType:
				if types.ExprString(v) == "[]bool" {
					t.Errorf("%s: a []bool in internal/rng — a round mask is its positions", fset.Position(v.Pos()))
				}
			case *ast.ForStmt, *ast.RangeStmt:
				if drawsInLoop(v) {
					drawLoops++
				}
			}
			return true
		})
	}
	if len(maskFuncs) != 1 || maskFuncs[0] != "MaskSeedIndices" {
		t.Errorf("internal/rng exports mask functions %v, want the one MaskSeedIndices", maskFuncs)
	}
	if drawLoops != 1 {
		t.Errorf("internal/rng has %d loops testing 53-bit draws, want exactly one mask draw loop", drawLoops)
	}
}

// drawsInLoop reports whether loop's body shifts a word right by 11 — takes
// a draw's top 53 bits — outside any nested loop.
func drawsInLoop(loop ast.Node) bool {
	var body *ast.BlockStmt
	switch v := loop.(type) {
	case *ast.ForStmt:
		body = v.Body
	case *ast.RangeStmt:
		body = v.Body
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return false
		case *ast.BinaryExpr:
			if lit, ok := v.Y.(*ast.BasicLit); ok && v.Op == token.SHR && lit.Value == "11" {
				found = true
			}
		}
		return true
	})
	return found
}

// TestOneRoundRecord: a synchronous run's per-round facts are one record,
// one row a round written by one function (scenario's writeRound) from the
// round's engine.RoundStats (DESIGN.md §6). The trace recorder package and
// the spec flag that switched it on stay gone, and no second function writes
// the record's header.
func TestOneRoundRecord(t *testing.T) {
	if _, err := os.Stat("internal/trace"); !os.IsNotExist(err) {
		t.Errorf("internal/trace exists (%v): a run's per-round facts are scenario's round record", err)
	}
	// The deleted spec flag, spelled in two halves so this file does not
	// name it either.
	flag := "record_" + "trace"
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		product := strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go")
		if !product && !strings.HasSuffix(path, ".json") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err == nil && strings.Contains(string(data), flag) {
			t.Errorf("%s names %s: the per-round record is written for every synchronous run", path, flag)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var writers []string
	for _, dir := range []string{"cmd", "internal"} {
		for _, f := range productFiles(t, fset, dir) {
			for _, decl := range f.Decls {
				ast.Inspect(decl, func(n ast.Node) bool {
					lit, ok := n.(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						return true
					}
					if v, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(v, "round,active,") {
						name := "a declaration"
						if fn, ok := decl.(*ast.FuncDecl); ok {
							name = fn.Name.Name
						}
						writers = append(writers, fset.Position(lit.Pos()).String()+" in "+name)
					}
					return true
				})
			}
		}
	}
	if len(writers) != 1 || !strings.HasSuffix(writers[0], " in writeRound") {
		t.Errorf("the per-round record's header is written at %v, want once, in scenario's writeRound", writers)
	}
}

// TestOneDurableWrite: a file that must be whole after a crash is written by
// engine.CommitFile alone, which creates its temp file, names and moves it
// (DESIGN.md §3). So in product code os.CreateTemp, any Chmod and os.Rename
// appear only in the file that declares CommitFile, with one exception: the
// campaign's runCell, which builds a cell directory under a temp name and
// renames it into place. Every os.OpenFile passes engine.FileMode, so the
// files of a run or a snapshot directory share one mode.
func TestOneDurableWrite(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, dir := range []string{"cmd", "internal"} {
		files = append(files, productFiles(t, fset, dir)...)
	}
	home := ""
	for _, f := range files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == "CommitFile" {
				home = fset.Position(f.Package).Filename
			}
		}
	}
	if filepath.Dir(home) != filepath.Join("internal", "engine") {
		t.Fatalf("CommitFile is declared in %q, want internal/engine", home)
	}
	for _, f := range files {
		file := fset.Position(f.Package).Filename
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			runCell := ok && d.Name.Name == "runCell" && file == filepath.Join("internal", "campaign", "run.go")
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg := ""
				if id, ok := sel.X.(*ast.Ident); ok {
					pkg = id.Name
				}
				at := fset.Position(call.Pos()).String()
				switch name := sel.Sel.Name; {
				case name == "Chmod" || pkg == "os" && (name == "CreateTemp" || name == "Rename"):
					if file != home && !(runCell && name == "Rename") {
						t.Errorf("%s calls %s: durable files are written by engine.CommitFile", at, name)
					}
				case pkg == "os" && name == "MkdirTemp":
					if !runCell {
						t.Errorf("%s calls os.MkdirTemp outside campaign's runCell", at)
					}
				case pkg == "os" && name == "OpenFile":
					if mode := types.ExprString(call.Args[2]); mode != "FileMode" && mode != "engine.FileMode" {
						t.Errorf("%s opens a file with mode %s, not engine.FileMode", at, mode)
					}
				}
				return true
			})
		}
	}
}

// panicPins is the number of panic calls in each product package under cmd/
// and internal/ (a package absent here has none). A panic is for a
// programming error the code cannot reach from a spec, a frame or a flag;
// anything else returns an error (ROADMAP aim 3).
var panicPins = map[string]int{
	"internal/algos":               13,
	"internal/campaign":            1,
	"internal/compress":            5,
	"internal/core":                4,
	"internal/dataset":             9,
	"internal/engine":              8,
	"internal/engine/memtransport": 1,
	"internal/gossip":              2,
	"internal/graph":               3,
	"internal/netsim":              14,
	"internal/nn":                  19,
	"internal/obs":                 3,
	"internal/rng":                 2,
	"internal/scenario":            2,
	"internal/tensor":              12,
}

// TestPanicSitesPinned: the panic calls per product package only go down. A
// new one fails here — return an error instead; a removed one fails too,
// until its pin above is lowered to the new count.
func TestPanicSitesPinned(t *testing.T) {
	fset := token.NewFileSet()
	counts := map[string]int{}
	for _, dir := range []string{"cmd", "internal"} {
		for _, f := range productFiles(t, fset, dir) {
			pkg := filepath.ToSlash(filepath.Dir(fset.Position(f.Pos()).Filename))
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
						counts[pkg]++
					}
				}
				return true
			})
		}
	}
	total := 0
	for pkg, n := range counts {
		total += n
		if pin := panicPins[pkg]; n > pin {
			t.Errorf("%s: %d panic calls, pinned at %d — return an error instead of panicking", pkg, n, pin)
		}
	}
	for pkg, pin := range panicPins {
		if n := counts[pkg]; n < pin {
			t.Errorf("%s: %d panic calls, pinned at %d — lower its panicPins entry to %d", pkg, n, pin, n)
		}
	}
	if total == 0 {
		t.Error("no panic call found: the guard would check nothing")
	}
}

// reachSets are the file sets a product function may be reached under: the
// default amd64 build, the pure-Go kernels, and a non-amd64 machine.
var reachSets = []struct {
	goarch string
	tags   []string
}{
	{"amd64", nil},
	{"amd64", []string{"purego"}},
	{"arm64", nil},
}

// testOnlyOracles are the product functions that only other packages'
// tests reach: oracles those tests check the product against, kept where
// they are because several packages' tests share them. The list only
// shrinks.
var testOnlyOracles = []string{
	"(*sapspsgd/internal/engine.CountingLedger).WorkerBytes",
	"(*sapspsgd/internal/engine.Engine).Nodes",
	"(*sapspsgd/internal/engine.Engine).ReplayPlans",
	"(*sapspsgd/internal/graph.Graph).Components",
	"(*sapspsgd/internal/graph.Graph).EdgeCount",
	"(*sapspsgd/internal/graph.Graph).IsConnected",
	"(*sapspsgd/internal/graph.Graph).Neighbors",
	"(*sapspsgd/internal/scenario.Spec).Build",
	"(*sapspsgd/internal/tensor.Matrix).IsDoublyStochastic",
	"sapspsgd/internal/tensor.abs",
}

// TestNoUnreachedProductCode: product code is what a binary runs. Every
// function declared outside the _test.go files of cmd/ and internal/ must be
// reached from a command's main, from the benchmark's sources, or from a
// _test.go file in another package (code that such a test calls cannot move
// into a test file). References are resolved by go/types object, so two
// functions that share a name are told apart. A call through an interface
// reaches the methods of that name and signature on every type that reached
// code mentions, as does a method of a standard-library interface. Code
// only its own package's tests call goes, or moves into those tests. The
// walk runs again without the test roots: what only other packages' tests
// reach is pinned by testOnlyOracles, so a second spelling of a live
// function cannot come back as a test's convenience.
func TestNoUnreachedProductCode(t *testing.T) {
	mod := loadModule(t)
	declared := map[string]string{} // FullName → position
	reached := map[string]bool{}    // from every root
	linked := map[string]bool{}     // from the commands' and the benchmark's roots
	for _, set := range reachSets {
		r := mod.check(t, set.goarch, set.tags)
		for name, pos := range r.declared {
			declared[name] = pos
		}
		for name := range r.reach(true) {
			reached[name] = true
		}
		for name := range r.reach(false) {
			linked[name] = true
		}
	}
	var dead, unpinned, testOnly []string
	for name, pos := range declared {
		switch {
		case !reached[name]:
			dead = append(dead, pos+": "+name)
		case !linked[name]:
			testOnly = append(testOnly, name)
			if !slices.Contains(testOnlyOracles, name) {
				unpinned = append(unpinned, pos+": "+name)
			}
		}
	}
	slices.Sort(dead)
	for _, d := range dead {
		t.Errorf("%s is reached by no command, no benchmark source and no other package's test: delete it, or move it into the _test.go files that call it", d)
	}
	slices.Sort(unpinned)
	for _, d := range unpinned {
		t.Errorf("%s is reached only by other packages' tests (%d functions are, %d pinned): point those tests at the function the product calls and delete it", d, len(testOnly), len(testOnlyOracles))
	}
	for _, name := range testOnlyOracles {
		if !slices.Contains(testOnly, name) {
			t.Errorf("%s is no longer reached only by tests (%d functions are, %d pinned): drop it from testOnlyOracles", name, len(testOnly), len(testOnlyOracles))
		}
	}
	if len(declared) == 0 || len(linked) == 0 {
		t.Error("no product function declared or linked: the guard would check nothing")
	}
}

// goModule is every Go file of the module and of benchmark/, parsed once.
type goModule struct {
	fset  *token.FileSet
	files map[string]*ast.File // file name → syntax
	std   types.Importer       // the standard library, from export data
}

func loadModule(t *testing.T) *goModule {
	t.Helper()
	m := &goModule{fset: token.NewFileSet(), files: map[string]*ast.File{}}
	std := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(m.fset, path, nil, 0)
		if err != nil {
			return err
		}
		m.files[path] = f
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); !strings.HasPrefix(p, "sapspsgd") && p != "unsafe" {
				std[p] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// One go list call finds the standard library's export data in the build
	// cache; type-checking it from source would take seconds.
	args := append([]string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, slices.Sorted(maps.Keys(std))...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok {
			export[path] = file
		}
	}
	m.std = importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return m
}

// importPathOf names the package in dir: benchmark/ is its own module,
// sapspsgd/benchmark, which the replace directive points at this one.
func importPathOf(dir string) string {
	if dir == "." {
		return "sapspsgd"
	}
	return "sapspsgd/" + filepath.ToSlash(dir)
}

// reachCheck is the module type-checked under one file set.
type reachCheck struct {
	declared map[string]string        // product function → position
	bodies   map[string]ast.Node      // product function → declaration
	roots    []ast.Node               // what a binary or a test starts from
	info     map[ast.Node]*types.Info // root or body → the check that resolved it
	skip     map[ast.Node]string      // test root → the package whose own objects it may not reach
	called   []*types.Func            // interface methods the standard library calls; reach adds reached code's
}

// check type-checks every package under one file set: product packages as a
// binary links them, and each directory's tests as go test builds them.
func (m *goModule) check(t *testing.T, goarch string, tags []string) *reachCheck {
	t.Helper()
	ctx := build.Default
	ctx.GOOS, ctx.GOARCH, ctx.BuildTags = "linux", goarch, tags
	r := &reachCheck{declared: map[string]string{}, bodies: map[string]ast.Node{}, info: map[ast.Node]*types.Info{},
		skip: map[ast.Node]string{}}
	files := map[string][3][]*ast.File{} // import path → product, in-package test, external test files
	for name, f := range m.files {
		dir, base := filepath.Split(name)
		if ok, err := ctx.MatchFile(filepath.Clean(dir+"."), base); err != nil || !ok {
			if err != nil {
				t.Fatal(err)
			}
			continue
		}
		path := importPathOf(filepath.Clean(dir + "."))
		set := files[path]
		switch {
		case strings.HasSuffix(f.Name.Name, "_test"):
			set[2] = append(set[2], f)
		case strings.HasSuffix(name, "_test.go"):
			set[1] = append(set[1], f)
		default:
			set[0] = append(set[0], f)
		}
		files[path] = set
	}
	var typeErrs []string
	conf := func(imp types.Importer) *types.Config {
		return &types.Config{Importer: imp, Error: func(err error) { typeErrs = append(typeErrs, err.Error()) }}
	}
	newInfo := func() *types.Info {
		return &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	}
	product := newInfo()
	pkgs := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if pkg, ok := pkgs[path]; ok {
			return pkg, nil
		}
		if _, ok := files[path]; !ok {
			return m.std.Import(path)
		}
		pkg, _ := conf(imp).Check(path, m.fset, files[path][0], product)
		pkgs[path] = pkg
		return pkg, nil
	}
	for _, path := range slices.Sorted(maps.Keys(files)) {
		if len(files[path][0]) > 0 {
			imp.Import(path)
		}
	}
	for path, pkg := range pkgs {
		for _, f := range files[path][0] {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn := product.Defs[d.Name].(*types.Func)
					r.info[d] = product
					if d.Body != nil && !strings.HasPrefix(path, "sapspsgd/benchmark") {
						r.declared[fn.FullName()] = m.fset.Position(d.Pos()).String()
					}
					r.bodies[fn.FullName()] = d
					if pkg.Name() == "main" && (d.Name.Name == "main" || path == "sapspsgd/benchmark") || d.Name.Name == "init" && d.Recv == nil {
						r.roots = append(r.roots, d)
					}
				case *ast.GenDecl:
					r.info[d] = product
					if d.Tok == token.VAR {
						r.roots = append(r.roots, d) // package initialization runs wherever the package is linked
					}
				}
			}
		}
	}
	// Each directory's tests, as go test builds them: the package with its
	// in-package test files, and the external test package, which imports
	// that and every package on its way there rebuilt against it.
	for path, set := range files {
		if len(set[1])+len(set[2]) == 0 {
			continue
		}
		test := newInfo()
		variants := map[string]*types.Package{}
		if len(set[1]) > 0 {
			variants[path], _ = conf(imp).Check(path, m.fset, append(slices.Clone(set[0]), set[1]...), test)
		}
		var testImp importerFunc
		testImp = func(p string) (*types.Package, error) {
			if pkg, ok := variants[p]; ok {
				return pkg, nil
			}
			if plain := pkgs[p]; len(variants) == 0 || plain == nil || !importsPath(plain, path) {
				return imp.Import(p)
			}
			pkg, _ := conf(testImp).Check(p, m.fset, files[p][0], newInfo())
			variants[p] = pkg
			return pkg, nil
		}
		if len(set[2]) > 0 {
			conf(testImp).Check(path+"_test", m.fset, set[2], test)
		}
		for _, f := range append(slices.Clone(set[1]), set[2]...) {
			r.roots = append(r.roots, f)
			r.info[f] = test
			r.skip[f] = path
		}
	}
	if len(typeErrs) > 0 {
		t.Fatalf("GOARCH=%s tags %v: %d type errors, first: %s", goarch, tags, len(typeErrs), typeErrs[0])
	}
	// A standard-library interface is called by standard-library code.
	for _, pkg := range m.stdPackages(pkgs) {
		for _, name := range pkg.Scope().Names() {
			if obj := pkg.Scope().Lookup(name); obj.Exported() {
				if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
					for i := range iface.NumMethods() {
						r.called = append(r.called, iface.Method(i))
					}
				}
			}
		}
	}
	// The errors package calls these through interfaces it does not export.
	for _, src := range []string{"error", "interface{ Unwrap() error }", "interface{ Unwrap() []error }", "interface{ Is(error) bool }", "interface{ As(any) bool }"} {
		tv, err := types.Eval(m.fset, nil, token.NoPos, src)
		if err != nil {
			t.Fatal(err)
		}
		r.called = append(r.called, tv.Type.Underlying().(*types.Interface).Method(0))
	}
	return r
}

// importsPath reports whether the module package pkg imports path, directly
// or through other module packages.
func importsPath(pkg *types.Package, path string) bool {
	for _, q := range pkg.Imports() {
		if q.Path() == path || strings.HasPrefix(q.Path(), "sapspsgd") && importsPath(q, path) {
			return true
		}
	}
	return false
}

// stdPackages is every standard-library package the module's packages import,
// directly or not.
func (m *goModule) stdPackages(pkgs map[string]*types.Package) []*types.Package {
	seen := map[*types.Package]bool{}
	var out []*types.Package
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		if !strings.HasPrefix(p.Path(), "sapspsgd") {
			out = append(out, p)
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

// reach walks the product functions from the roots, the test files among
// them only withTests, and returns the reached ones.
func (r *reachCheck) reach(withTests bool) map[string]bool {
	reached := map[string]bool{}
	called := slices.Clone(r.called)
	live := map[*types.Named]bool{}
	var work []ast.Node
	mark := func(name string) {
		if !reached[name] {
			reached[name] = true
			if body, ok := r.bodies[name]; ok {
				work = append(work, body)
			}
		}
	}
	// A live type is one reached code mentions; its methods, and those it
	// promotes from embedded fields, are what an interface call can reach.
	var markLive func(t types.Type)
	markLive = func(t types.Type) {
		named := namedOf(t)
		if named == nil || named.Obj().Pkg() == nil || !strings.HasPrefix(named.Obj().Pkg().Path(), "sapspsgd") || live[named.Origin()] {
			return
		}
		live[named.Origin()] = true
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := range st.NumFields() {
				if st.Field(i).Embedded() {
					markLive(st.Field(i).Type())
				}
			}
		}
	}
	walk := func(n ast.Node, info *types.Info, skip string) {
		ast.Inspect(n, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && skip == "" {
				if tv, ok := info.Types[e]; ok && tv.Type != nil {
					markLive(tv.Type)
				}
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), "sapspsgd") || fn.Pkg().Path() == skip {
				return true
			}
			fn = fn.Origin()
			if sig := fn.Type().(*types.Signature); sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				if skip == "" {
					called = append(called, fn)
				}
				return true
			}
			mark(fn.FullName())
			return true
		})
	}
	for _, root := range r.roots {
		if r.skip[root] != "" && !withTests {
			continue
		}
		if fd, ok := root.(*ast.FuncDecl); ok {
			reached[r.info[fd].Defs[fd.Name].(*types.Func).FullName()] = true
		}
		walk(root, r.info[root], r.skip[root])
	}
	for {
		for len(work) > 0 {
			n := work[len(work)-1]
			work = work[:len(work)-1]
			walk(n, r.info[n], "")
		}
		// Dynamic dispatch: a live type's method that an interface call names.
		before := len(reached)
		for named := range live {
			for i := range named.NumMethods() {
				m := named.Method(i)
				if reached[m.FullName()] {
					continue
				}
				for _, c := range called {
					if c.Name() == m.Name() && types.Identical(c.Type(), m.Type()) {
						mark(m.FullName())
						break
					}
				}
			}
		}
		if len(reached) == before && len(work) == 0 {
			return reached
		}
	}
}

// namedOf is the named type behind t and any pointers to it.
func namedOf(t types.Type) *types.Named {
	for {
		switch v := t.(type) {
		case *types.Pointer:
			t = v.Elem()
		case *types.Named:
			return v
		default:
			return nil
		}
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
