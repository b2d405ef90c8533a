package quicksand

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllow lists the exported names that may lack a product caller,
// keyed as package.Name or package.Type.Method, each with its reason.
var exportAllow = map[string]string{
	// Benchmark API: bench/ is its own module and the only caller.
	"bgpd.Replay":                    "benchmark API: bench/replay.go replays the labelled month into the daemon",
	"bgpd.Session.RecvUpdateBatch":   "benchmark API: bench/probes.go's bgpd loopback probe reads through it",
	"bgpd.Session.SendRaw":           "benchmark API: bench/load.go's feed writes pre-encoded UPDATEs",
	"bgpsim.ImportMRT":               "benchmark API: bench/replay.go reads the month back from MRT (ROADMAP item 9 gives it a product caller)",
	"obs.Snapshot.Quantile":          "benchmark API: bench/load.go reads histogram quantiles off /metrics",
	"topology.DefaultPowerLawConfig": "benchmark API: bench/batch.go sizes the routes-73k graph",
	"topology.GeneratePowerLaw":      "benchmark API: bench/batch.go builds the routes-73k graph",
	"topology.Graph.Links":           "benchmark API: bench/batch.go reports the routes-73k graph's size",
	"topology.NewRouteSet":           "benchmark API: bench/batch.go's routes-73k (ROADMAP item 1 gives RouteSet a product caller)",
	"topology.RouteSet.Apply":        "benchmark API: bench/batch.go's routes-73k link flaps",
	"topology.RouteSet.Dests":        "benchmark API: bench/batch.go's routes-73k",
	"topology.RouteSet.RecomputeAll": "benchmark API: bench/batch.go's routes-73k full recompute",
	"topology.RouteSet.TableAt":      "benchmark API: bench/batch.go's routes-73k",

	// Test oracle: the reference the tests compare the product against.
	"packet.ParseTCPPacket": "test oracle: the strict parser (both checksums verified) AppendTCPHeaders' captures are checked with",

	// Fixtures that many tests share.
	"bgpsim.NewSession":        "test fixture: the hand-written streams of the analysis, defense and monitord tests",
	"bgpd.Session.SendUpdates": "test fixture: the UPDATE sender of the bgpd, monitord and fleet tests",
	"monitord.HTTPAlerts":      "test fixture: the /alerts client the monitord, fleet and serve tests poll through",

	// ROADMAP item 6 wires these into its detection-coverage matrix or
	// deletes them.
	"attacks.ScopedHijack":         "ROADMAP item 6: the scoped hijack class of the coverage matrix",
	"defense.NewPathProber":        "ROADMAP item 6: the traceroute defense",
	"defense.PathProber.Baseline":  "ROADMAP item 6: the traceroute defense",
	"defense.PathProber.Check":     "ROADMAP item 6: the traceroute defense",
	"defense.PathProber.KnownASes": "ROADMAP item 6: the traceroute defense",
	"defense.ProbePath":            "ROADMAP item 6: the traceroute defense",
}

// exportDecl is one exported top-level name; group holds every member of
// its const (…) enumeration, which counts as used when any member is.
type exportDecl struct {
	key, file string
	group     []string
}

// TestExportsHaveProductCallers fails on an exported top-level name,
// declared in a non-test file outside cmd/, bench/ and internal/testkit
// (test infrastructure), whose identifier appears in no non-test file of
// the product other than as a top-level declaration's name or in a
// method receiver; bench/ is not the product. exportAllow exempts a
// name, and the test also fails on an exportAllow line whose name is not
// declared or has gained a caller. Matching is by identifier, so a name
// that shares its identifier with a used one passes: the check is a
// lower bound.
func TestExportsHaveProductCallers(t *testing.T) {
	var decls []exportDecl
	used := map[string]bool{}
	forEachProductFile(t, func(path string, f *ast.File) {
		declared := declIdents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		if !strings.HasPrefix(path, "cmd/") && !strings.HasPrefix(path, "internal/testkit/") {
			decls = append(decls, exportedDecls(f, path)...)
		}
	})

	keys := map[string]bool{}
	for _, d := range decls {
		keys[d.key] = true
		called := false
		for _, name := range d.group {
			called = called || used[name]
		}
		_, allowed := exportAllow[d.key]
		switch {
		case !called && !allowed:
			t.Errorf("%s (%s) has no product caller: delete it, or add an exportAllow line with the reason", d.key, d.file)
		case called && allowed:
			t.Errorf("exportAllow lists %s, which now has a product caller: delete its line", d.key)
		}
	}
	var stale []string
	for key := range exportAllow {
		if !keys[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("exportAllow lists %s, which is not declared", key)
	}
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

// exportedDecls returns f's exported top-level names.
func exportedDecls(f *ast.File, path string) []exportDecl {
	pkg := f.Name.Name
	var out []exportDecl
	add := func(key string, group ...string) {
		out = append(out, exportDecl{key: key, file: path, group: group})
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if !decl.Name.IsExported() {
				continue
			}
			if decl.Recv == nil {
				add(pkg+"."+decl.Name.Name, decl.Name.Name)
			} else if recv := recvType(decl.Recv.List[0].Type); ast.IsExported(recv) {
				add(pkg+"."+recv+"."+decl.Name.Name, decl.Name.Name)
			}
		case *ast.GenDecl:
			var names []string
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, spec.Name.Name)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						names = append(names, id.Name)
					}
				}
			}
			enum := decl.Tok == token.CONST && decl.Lparen.IsValid()
			for _, name := range names {
				switch {
				case !ast.IsExported(name):
				case enum:
					add(pkg+"."+name, names...)
				default:
					add(pkg+"."+name, name)
				}
			}
		}
	}
	return out
}

// declIdents returns the identifiers of f that name a top-level
// declaration or sit in a method's receiver: neither is a use.
func declIdents(f *ast.File) map[*ast.Ident]bool {
	m := map[*ast.Ident]bool{}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			m[decl.Name] = true
			if decl.Recv != nil {
				ast.Inspect(decl.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						m[id] = true
					}
					return true
				})
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					m[spec.Name] = true
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						m[id] = true
					}
				}
			}
		}
	}
	return m
}

// recvType returns the name of a method receiver's type.
func recvType(expr ast.Expr) string {
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
