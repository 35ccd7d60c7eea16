package empower

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryConfigFieldIsSet is the census behind DESIGN.md's rule that a
// settable field must have a program that sets it: every exported field of
// a struct named *Config or *Options, declared in a non-test file under
// internal/, must be written by a program — a non-test Go file outside
// examples/ (cmd/, internal/, bench/). Writes from tests and examples do
// not count: a knob only tests turn is a second code path no program runs.
// A write is a composite-literal key (`Config{F: v}`), the left side of an
// assignment or ++/-- (`c.F = v`), or an address taken (`&c.F`, as flag
// registration does). A field no program writes only ever holds its
// default in every program; make it a constant at its use instead, or —
// where a test must still reach it — list it in testOnlyFields with the
// reason. The census fails on an unlisted field without a program writer,
// and on a listed field that has gained one or no longer exists.
//
// The census parses but does not type-check, so it matches writes to
// fields by name. Only a composite literal whose type is spelled out
// (`node.Config{…}`) is tied to its struct. Every other write — an assignment, an address, a key of a literal whose type
// is elided — counts for every same-named field of every package the
// writing file can reach through its imports. A write to an unrelated
// same-named field can therefore hide an unset one; the census never
// reports a field that is set.
func TestEveryConfigFieldIsSet(t *testing.T) {
	const module = "repro"
	type file struct {
		pkg string // import path of the file's directory
		f   *ast.File
	}
	fset := token.NewFileSet()
	var files []file
	imports := map[string][]string{} // package → module packages its non-test files import
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || p == filepath.Join("bench", "out")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		files = append(files, file{pkg, f})
		if !strings.HasSuffix(p, "_test.go") {
			for _, im := range f.Imports {
				imports[pkg] = append(imports[pkg], importPath(im))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The census, keyed "pkg.Type.Field".
	type field struct{ pos, pkg, name string }
	fields := map[string]field{}
	for _, fl := range files {
		declares := strings.HasPrefix(fl.pkg, module+"/internal/") && !strings.HasSuffix(fset.File(fl.f.Pos()).Name(), "_test.go")
		ast.Inspect(fl.f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !declares || !ok || !(strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options")) {
				return true
			}
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					if name.IsExported() {
						fields[fl.pkg+"."+ts.Name.Name+"."+name.Name] = field{
							fset.Position(name.Pos()).String(), fl.pkg, ts.Name.Name + "." + name.Name}
					}
				}
			}
			return true
		})
	}

	// The writes: typed[pkg.Type.Field] for spelled-out literals,
	// byName[pkg.Field] for every package the writing file can reach.
	typed, byName := map[string]bool{}, map[string]bool{}
	for _, fl := range files {
		name := filepath.ToSlash(fset.File(fl.f.Pos()).Name())
		if strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, "examples/") {
			continue
		}
		local := localImports(fl.f)
		reach := map[string]bool{}
		var visit func(string)
		visit = func(p string) {
			if !reach[p] {
				reach[p] = true
				for _, q := range imports[p] {
					visit(q)
				}
			}
		}
		visit(fl.pkg)
		for _, p := range local {
			visit(p)
		}
		mark := func(name string) {
			for p := range reach {
				byName[p+"."+name] = true
			}
		}
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				typ := typeName(fl.pkg, local, n.Type)
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if id, ok := kv.Key.(*ast.Ident); ok {
						if _, known := fields[typ+"."+id.Name]; known {
							typed[typ+"."+id.Name] = true
						} else {
							mark(id.Name)
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					markSelector(mark, lhs)
				}
			case *ast.IncDecStmt:
				markSelector(mark, n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					markSelector(mark, n.X)
				}
			}
			return true
		})
	}

	var bad []string
	listed := map[string]bool{}
	for key, f := range fields {
		short := path.Base(f.pkg) + "." + f.name
		written := typed[key] || byName[f.pkg+f.name[strings.IndexByte(f.name, '.'):]]
		_, allowed := testOnlyFields[short]
		listed[short] = allowed
		switch {
		case allowed && written:
			bad = append(bad, f.pos+": "+short+" is in testOnlyFields but a program writes it: drop the entry")
		case !allowed && !written:
			bad = append(bad, f.pos+": no program writes "+short)
		}
	}
	for short := range testOnlyFields {
		if !listed[short] {
			bad = append(bad, "testOnlyFields lists "+short+", which no longer exists: drop the entry")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
	if len(fields) == 0 {
		t.Fatal("census found no Config/Options fields under internal/")
	}
	t.Logf("%d exported Config/Options fields, %d of them in testOnlyFields", len(fields), len(testOnlyFields))
}

// testOnlyFields are the Config/Options fields no program writes that stay
// settable anyway, each with its reason. Keys are "package.Type.Field".
var testOnlyFields = map[string]string{
	"optimal.Config.Solver":              "the centralized solver is to be replaced whole (ROADMAP item 6)",
	"optimal.SolveOptions.Iters":         "the centralized solver is to be replaced whole (ROADMAP item 6)",
	"optimal.SolveOptions.Step":          "the centralized solver is to be replaced whole (ROADMAP item 6)",
	"optimal.SolveOptions.Gain":          "the centralized solver is to be replaced whole (ROADMAP item 6)",
	"mac.Options.QueueLimit":             "bench/layers.go builds mac.Options with an empty literal and is frozen",
	"mac.Options.LossProb":               "bench/layers.go builds mac.Options with an empty literal and is frozen",
	"topology.Config.WiFiSenseFactor":    "bench/layers.go builds topology.Config with an empty literal and is frozen",
	"node.Config.PriceInterval":          "TestPriceTermMatchesReference scripts its price reports between the automatic ticks",
	"fleet.SupervisorConfig.BackoffBase": "the retry tests run on the wall clock and shorten the backoff",
	"fleet.SupervisorConfig.BackoffMax":  "the retry tests run on the wall clock and shorten the backoff",
	"invariant.Config.Limit":             "TestViolationLimit sets the cap on recorded violations",
	"scenario.Options.Strict":            "an input-validation mode: scenario tests fail on unresolvable event references",
}

func importPath(im *ast.ImportSpec) string {
	p, _ := strconv.Unquote(im.Path.Value)
	return p
}

// localImports maps each import's local name to its path (a package's
// name is taken to be the last element of its path, as it is in this
// module).
func localImports(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, im := range f.Imports {
		p := importPath(im)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		m[name] = p
	}
	return m
}

// typeName returns "pkg.Type" for a type spelled `Type` (in package pkg)
// or `imp.Type`, and "" for any other type expression.
func typeName(pkg string, local map[string]string, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return pkg + "." + x.Name
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok && local[id.Name] != "" {
			return local[id.Name] + "." + x.Sel.Name
		}
	}
	return ""
}

// markSelector records the field name of a selector expression, looking
// through parentheses and index expressions (so `c.F[i] = v` writes F).
func markSelector(mark func(string), e ast.Expr) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			mark(x.Sel.Name)
			return
		default:
			return
		}
	}
}
