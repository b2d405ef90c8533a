package quicksand

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exportAllow lists the names that may lack a product use, keyed as
// package.Name, package.Type.Method or package.Type.field (a main
// package is named by its directory), each with its reason.
var exportAllow = map[string]string{
	// Benchmark API: bench/ is its own module and the only caller.
	"bgp.Sequence":                        "benchmark API: bench/torfeed.go builds its feed's AS paths",
	"bgpd.Replay":                         "benchmark API: bench/replay.go replays the labelled month into the daemon",
	"bgpd.Session.AS4":                    "benchmark API: bench/child.go checks that the feed session negotiated 4-octet ASNs",
	"bgpd.Session.RecvUpdateBatch":        "benchmark API: bench/probes.go's bgpd loopback probe reads through it",
	"bgpsim.ImportMRT":                    "benchmark API: bench/replay.go reads the month back from MRT (ROADMAP item 9 gives it a product caller)",
	"fleet.New":                           "benchmark API: bench/probes.go's fleet probe boots it (ROADMAP item 3 deletes it with the fleet workloads)",
	"obs.ParseExposition":                 "benchmark API: bench/load.go and bench/child.go parse the child's /metrics",
	"obs.Snapshot.Quantile":               "benchmark API: bench/load.go reads histogram quantiles off /metrics",
	"obs.Snapshot.Sum":                    "benchmark API: bench/load.go sums counter families off /metrics",
	"topology.CompiledRoutes.MemoryBytes": "benchmark API: bench/batch.go's topology.bytes_per_as_table",
	"topology.DefaultPowerLawConfig":      "benchmark API: bench/batch.go sizes the routes-73k graph",
	"topology.GeneratePowerLaw":           "benchmark API: bench/batch.go builds the routes-73k graph",
	"topology.Graph.Links":                "benchmark API: bench/batch.go reports the routes-73k graph's size",
	"topology.NewRouteSet":                "benchmark API: bench/batch.go's routes-73k (ROADMAP item 1 gives RouteSet a product caller)",
	"topology.RouteSet.Apply":             "benchmark API: bench/batch.go's routes-73k link flaps",
	"topology.RouteSet.Dests":             "benchmark API: bench/batch.go's routes-73k",
	"topology.RouteSet.RecomputeAll":      "benchmark API: bench/batch.go's routes-73k full recompute",
	"topology.RouteSet.TableAt":           "benchmark API: bench/batch.go's routes-73k",

	// Test oracle: the reference the tests compare the product against.
	"packet.ParseTCPPacket":         "test oracle: the strict parser (both checksums verified) AppendTCPHeaders' captures are checked with",
	"bgpd.Session.HoldTime":         "test oracle: the negotiated hold time the bgpd tests and serve's -hold-time test check",
	"monitord.Daemon.RIB":           "test oracle: the live RIB the monitord, fleet and testkit equivalence tests read back",
	"pcap.ReadAll":                  "test oracle: reads written captures back in the pcap, tcpsim and serve capture tests",
	"stats.ChiSquare":               "test oracle: the goodness-of-fit test of the selection and topology-property checks",
	"stats.MergeSmallBins":          "test oracle: pools sparse bins before stats.ChiSquare",
	"topology.CompiledRoutes.Table": "test oracle: the decoded table the route oracle diffs the engine against",
	"topology.Graph.Neighbors":      "test oracle: the adjacency the naive route oracle and the property checks walk",
	"topology.Graph.ValleyFree":     "test oracle: the Gao-Rexford path check of the stream and route invariants",
	"torpath.SelectionProb":         "test oracle: the stationary selection probabilities the chi-square selection checks expect",

	// Fixtures that many tests share.
	"bgpsim.NewSession":               "test fixture: the hand-written streams of the analysis, defense and monitord tests",
	"bgpd.Session.SendUpdate":         "test fixture: the one-UPDATE sender of the bgpd, monitord and serve tests",
	"bgpd.Session.SendUpdates":        "test fixture: the UPDATE sender of the bgpd, monitord and fleet tests",
	"bgpd.Session.RecvUpdate":         "test fixture: the one-UPDATE reader of the bgpd tests",
	"bgp.Update.AnnouncesOrWithdraws": "test fixture: the End-of-RIB check of the bgpd replay and testkit stream tests",
	"monitord.HTTPAlerts":             "test fixture: the /alerts client the monitord, fleet and serve tests poll through",
	"monitord.HTTPAlerts.Alerts":      "test fixture: the poll of the /alerts client above",

	// ROADMAP item 6 wires these into its detection-coverage matrix or
	// deletes them.
	"attacks.ScopedHijack":         "ROADMAP item 6: the scoped hijack class of the coverage matrix",
	"defense.NewPathProber":        "ROADMAP item 6: the traceroute defense",
	"defense.PathProber.Baseline":  "ROADMAP item 6: the traceroute defense",
	"defense.PathProber.Check":     "ROADMAP item 6: the traceroute defense",
	"defense.PathProber.KnownASes": "ROADMAP item 6: the traceroute defense",
	"defense.ProbePath":            "ROADMAP item 6: the traceroute defense",

	// ROADMAP item 9 reads archives a user brings; this is its consensus
	// reader.
	"torconsensus.Parse": "ROADMAP item 9: reads a consensus document a user brings (cmd/torgen's test reads its output back)",
}

// TestExportsHaveProductCallers type-checks every non-test package of
// the module outside bench/ (its own module) and fails on a top-level
// func, type, var or const, a method or an unexported struct field,
// declared in a non-test file, that no non-test file uses. Neither bench/
// nor internal/testkit (test infrastructure, which only tests import) is
// the product, so neither is scanned. deadNames says what counts as a
// use. exportAllow exempts a
// name, and the test also fails on an exportAllow line whose name is not
// declared or has gained a use.
func TestExportsHaveProductCallers(t *testing.T) {
	mod, std := moduleList(t)
	mod = slices.DeleteFunc(mod, func(p scanPackage) bool { return p.path == "quicksand/internal/testkit" })
	declared, dead, err := deadNames(token.NewFileSet(), mod, std)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range sortedKeys(dead) {
		if _, ok := exportAllow[key]; !ok {
			t.Errorf("%s (%s) has no product use: delete it, or add an exportAllow line with the reason", key, dead[key])
		}
	}
	for _, key := range sortedKeys(exportAllow) {
		switch _, isDead := dead[key]; {
		case !declared[key]:
			t.Errorf("exportAllow lists %s, which is not declared", key)
		case !isDead:
			t.Errorf("exportAllow lists %s, which now has a product use: delete its line", key)
		}
	}
}

// TestDeadNamesFixture runs the scan over testdata/deadcode, which
// declares one name of each kind the scan must flag or pass.
func TestDeadNamesFixture(t *testing.T) {
	_, std := moduleList(t)
	files, err := filepath.Glob("testdata/deadcode/*.go")
	if err != nil {
		t.Fatal(err)
	}
	pkg := scanPackage{path: "testdata/deadcode", dir: "testdata/deadcode"}
	for _, f := range files {
		if !strings.HasSuffix(f, "_test.go") {
			pkg.files = append(pkg.files, filepath.Base(f))
		}
	}
	_, dead, err := deadNames(token.NewFileSet(), []scanPackage{pkg}, std)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(sortedKeys(dead), " ")
	want := "testdata/deadcode.countdown testdata/deadcode.receiverOnly testdata/deadcode.square.label " +
		"testdata/deadcode.square.reset testdata/deadcode.unused"
	if got != want {
		t.Errorf("dead names:\n got %s\nwant %s", got, want)
	}
}

// scanPackage is one package to type-check: its import path, directory
// and non-test files.
type scanPackage struct {
	path, dir string
	files     []string
}

var moduleListOnce struct {
	sync.Once
	mod []scanPackage
	std types.Importer
	err error
}

// moduleList returns the module's packages in import order and an
// importer of the standard library's export data, both from one go list
// call.
func moduleList(t *testing.T) ([]scanPackage, types.Importer) {
	t.Helper()
	m := &moduleListOnce
	m.Do(func() {
		out, err := exec.Command("go", "list", "-export", "-deps", "-f",
			`{{if .Standard}}{{.ImportPath}}={{.Export}}{{else}}{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}{{end}}`,
			"./...").Output()
		if err != nil {
			m.err = err
			return
		}
		wd, err := os.Getwd()
		if err != nil {
			m.err = err
			return
		}
		exports := map[string]string{}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			if path, export, ok := strings.Cut(sc.Text(), "="); ok && !strings.Contains(path, " ") {
				exports[path] = export
			} else if f := strings.Fields(sc.Text()); len(f) >= 2 {
				dir, err := filepath.Rel(wd, f[1])
				if err != nil {
					m.err = err
					return
				}
				m.mod = append(m.mod, scanPackage{path: f[0], dir: dir, files: f[2:]})
			}
		}
		m.std = importer.ForCompiler(token.NewFileSet(), "gc", func(path string) (io.ReadCloser, error) {
			return os.Open(exports[path])
		})
	})
	if m.err != nil {
		t.Fatal(m.err)
	}
	return append([]scanPackage(nil), m.mod...), m.std
}

// deadNames type-checks pkgs, which are in import order and import
// nothing outside themselves but the standard library, and returns the
// key of every name the packages declare and, with its position,
// each one no file of pkgs uses. A name is a top-level func (not main
// or init), type, var or const, a method, or an unexported, non-embedded
// field of a top-level struct type. A use is an identifier that
// resolves to the name, outside the name's own declaration (so neither a
// recursive call nor a method's receiver counts); a field's use must
// read it, not assign it or key a composite literal. A method is also
// used when its type, or a pointer to it, implements an interface with
// a method of that name that a package in scope declares or that pkgs
// mention, and a const (…) group is used when any member is.
func deadNames(fset *token.FileSet, pkgs []scanPackage, std types.Importer) (declared map[string]bool, dead map[string]string, err error) {
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	type decl struct {
		key        string
		start, end token.Pos
		group      []types.Object // a const (…) group's members
	}
	decls := map[types.Object]*decl{}
	recvs, writes := map[*ast.Ident]bool{}, map[*ast.Ident]bool{}
	used := map[types.Object]bool{}
	var infos []*types.Info
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.files {
			f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.path, fset, files, info)
		if err != nil {
			return nil, nil, err
		}
		checked[p.path] = pkg
		infos = append(infos, info)
		for _, f := range files {
			markNonUses(f, recvs, writes)
		}
		prefix := pkg.Name()
		if prefix == "main" {
			prefix = strings.TrimPrefix(p.path, "quicksand/")
		}
		add := func(id *ast.Ident, key string, node ast.Node) {
			if id.Name != "_" {
				decls[info.Defs[id]] = &decl{key: prefix + "." + key, start: node.Pos(), end: node.End()}
			}
		}
		for _, f := range files {
			for _, dl := range f.Decls {
				switch dl := dl.(type) {
				case *ast.FuncDecl:
					switch {
					case dl.Recv != nil:
						add(dl.Name, recvName(dl.Recv.List[0].Type)+"."+dl.Name.Name, dl)
					case dl.Name.Name == "init" || dl.Name.Name == "main" && pkg.Name() == "main":
					default:
						add(dl.Name, dl.Name.Name, dl)
					}
				case *ast.GenDecl:
					var group []types.Object
					for _, spec := range dl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(spec.Name, spec.Name.Name, spec)
							st, ok := spec.Type.(*ast.StructType)
							if !ok {
								continue
							}
							for _, fld := range st.Fields.List {
								for _, id := range fld.Names {
									if !id.IsExported() {
										add(id, spec.Name.Name+"."+id.Name, id)
									}
								}
							}
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								add(id, id.Name, spec)
								if dl.Tok == token.CONST && dl.Lparen.IsValid() && id.Name != "_" {
									group = append(group, info.Defs[id])
								}
							}
						}
					}
					for _, obj := range group {
						decls[obj].group = group
					}
				}
			}
		}
	}
	delete(decls, nil)

	for _, info := range infos {
		for id, obj := range info.Uses {
			obj = origin(obj)
			d := decls[obj]
			if d == nil || recvs[id] || id.Pos() >= d.start && id.Pos() < d.end {
				continue
			}
			if v, ok := obj.(*types.Var); ok && v.IsField() && writes[id] {
				continue
			}
			used[obj] = true
		}
	}
	byMethod := interfacesByMethod(checked, infos)
	declared, dead = map[string]bool{}, map[string]string{}
	for obj, d := range decls {
		declared[d.key] = true
		if used[obj] || methodViaInterface(obj, byMethod) {
			continue
		}
		groupUsed := false
		for _, m := range d.group {
			groupUsed = groupUsed || used[m]
		}
		if !groupUsed {
			dead[d.key] = fset.Position(obj.Pos()).String()
		}
	}
	return declared, dead, nil
}

// markNonUses adds to recvs the identifiers in f's method receivers and
// to writes those that only write what they name: the selector of an
// assignment's or an increment's target, and a composite literal's key.
func markNonUses(f *ast.File, recvs, writes map[*ast.Ident]bool) {
	written := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil {
				ast.Inspect(n.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						recvs[id] = true
					}
					return true
				})
			}
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				written(e)
			}
		case *ast.IncDecStmt:
			written(n.X)
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				writes[id] = true
			}
		}
		return true
	})
}

// interfacesByMethod indexes by method name every interface that a
// package of checked or one they import declares at top level, that
// infos record as an expression's type, and the predeclared error.
func interfacesByMethod(checked map[string]*types.Package, infos []*types.Info) map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	seen := map[types.Type]bool{}
	addType := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seen[iface] {
			return
		}
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		seen[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byMethod[name] = append(byMethod[name], iface)
		}
	}
	addType(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addType(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range checked {
		visit(p)
	}
	for _, info := range infos {
		for _, tv := range info.Types {
			if tv.Type != nil {
				addType(tv.Type)
			}
		}
	}
	return byMethod
}

// methodViaInterface reports whether obj is a method whose receiver type,
// or a pointer to it, implements an interface of byMethod[obj.Name()].
func methodViaInterface(obj types.Object, byMethod map[string][]*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, iface := range byMethod[fn.Name()] {
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// recvName returns the name of a method receiver's type.
func recvName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// forEachProductFile parses every non-test Go file of the module outside
// bench/ (its own module), testdata and dot directories, and calls fn
// with its slash path.
func forEachProductFile(t *testing.T, fn func(path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "bench" || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRandStreamsUseNewRand fails on a call of math/rand's NewSource in
// a non-test product file outside internal/par: every stream is built by
// par.NewRand, which draws the same values but seeds in O(1), so a
// stdlib source would only bring back the seeding cost.
func TestRandStreamsUseNewRand(t *testing.T) {
	forEachProductFile(t, func(path string, f *ast.File) {
		if strings.HasPrefix(path, "internal/par/") {
			return
		}
		names := map[string]bool{}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"math/rand"` {
				name := "rand"
				if imp.Name != nil {
					name = imp.Name.Name
				}
				names[name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "NewSource" {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && names[x.Name] {
				t.Errorf("%s: %s.NewSource: build the stream with par.NewRand", path, x.Name)
			}
			return true
		})
	})
}
