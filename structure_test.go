// Structural guards: shapes earlier simplifications collapsed the code into,
// each named by the test that fails when it regrows.
package sapspsgd_test

import (
	"go/ast"
	"go/build/constraint"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
// pair lays out its round-boundary state — Trainer.StateBlob / ReadState:
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
		t.Errorf("%d struct types are {Model, Loader, Velocity}, want none beside Trainer.StateBlob's layout: %v", len(states), states)
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
// layout and nothing else (a second field set is a second storage mode, a
// Sparse method the fork on it), and netsim.RoundEnv — base, jitter and
// per-node multipliers in one rewrite — is the only type with a Tick.
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
					if got := strings.Join(fields, " "); got != "N off nbr wts" {
						t.Errorf("%s: netsim.Bandwidth has fields {%s}, want the one CSR layout {N off nbr wts}", fset.Position(ts.Pos()), got)
					}
				}
			case *ast.FuncDecl:
				if d.Recv == nil {
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				on := recv.(*ast.Ident).Name
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
