package empower

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryConfigFieldIsSet is the census behind DESIGN.md's rule that a
// settable field must have a program that sets it: every exported field of
// a struct named *Config or *Options, declared in a non-test file under
// internal/, must be written by a program — a non-test Go file outside
// examples/ (cmd/, internal/, bench/). Writes from tests and examples do
// not count: a knob only tests turn is a second code path no program runs.
// A write is a composite-literal key (`Config{F: v}`, its type spelled
// out or elided), the left side of an assignment or ++/-- (`c.F = v`), or
// an address taken (`&c.F`, as flag registration does). The census
// type-checks the module's programs (go/types, the standard library
// imported from source), so every write is tied to the one field it
// writes. A field no program writes only ever holds its default in every
// program; make it a constant at its use instead, or — where a test must
// still reach it — list it in testOnlyFields with the reason. The census
// fails on an unlisted field without a program writer, and on a listed
// field that has gained one or no longer exists.
func TestEveryConfigFieldIsSet(t *testing.T) {
	const module = "repro"
	var dirs []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || p == "examples" || p == filepath.Join("bench", "out")) {
				return filepath.SkipDir
			}
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The module uses no cgo, so everything is checked as built without
	// it: the source importer (which reads build.Default) then takes the
	// standard library's pure-Go files and runs no C toolchain.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	t.Cleanup(func() { build.Default.CgoEnabled = cgo })
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	type checked struct {
		pkg   *types.Package
		files []*ast.File
		info  *types.Info
	}
	pkgs := map[string]*checked{} // by import path, each checked once
	var check func(dir string) (*checked, error)
	imp := importerFunc(func(p string) (*types.Package, error) {
		if rel, ok := strings.CutPrefix(p, module+"/"); ok {
			c, err := check(filepath.FromSlash(rel))
			if err != nil {
				return nil, err
			}
			return c.pkg, nil
		}
		return std.Import(p)
	})
	check = func(dir string) (*checked, error) {
		p := path.Join(module, filepath.ToSlash(dir))
		if c := pkgs[p]; c != nil {
			return c, nil
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		c := &checked{info: &types.Info{
			Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			c.files = append(c.files, f)
		}
		conf := types.Config{Importer: imp}
		if c.pkg, err = conf.Check(p, fset, c.files, c.info); err != nil {
			return nil, err
		}
		pkgs[p] = c
		return c, nil
	}
	for _, dir := range dirs {
		var none *build.NoGoError
		if _, err := check(dir); err != nil && !errors.As(err, &none) {
			t.Fatal(err)
		}
	}

	// The census: every exported field of a *Config/*Options struct
	// declared under internal/.
	fields := map[*types.Var]string{} // field → "package.Type.Field"
	for p, c := range pkgs {
		if !strings.HasPrefix(p, module+"/internal/") {
			continue
		}
		scope := c.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = c.pkg.Name() + "." + name + "." + f.Name()
				}
			}
		}
	}

	// The writes, each resolved to its field.
	written := map[*types.Var]bool{}
	field := func(info *types.Info, e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					written[sel.Obj().(*types.Var).Origin()] = true
				}
			}
			return
		}
	}
	for _, c := range pkgs {
		for _, f := range c.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := c.info.Uses[id].(*types.Var); ok && v.IsField() {
									written[v.Origin()] = true
								}
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						field(c.info, lhs)
					}
				case *ast.IncDecStmt:
					field(c.info, n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						field(c.info, n.X)
					}
				}
				return true
			})
		}
	}

	var bad []string
	listed := map[string]bool{}
	for f, short := range fields {
		_, allowed := testOnlyFields[short]
		listed[short] = allowed
		pos := fset.Position(f.Pos()).String()
		switch {
		case allowed && written[f]:
			bad = append(bad, pos+": "+short+" is in testOnlyFields but a program writes it: drop the entry")
		case !allowed && !written[f]:
			bad = append(bad, pos+": no program writes "+short)
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

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// testOnlyFields are the Config/Options fields no program writes that stay
// settable anyway, each with its reason. Keys are "package.Type.Field".
var testOnlyFields = map[string]string{
	"optimal.Config.Solver":              "the centralized solver is to be replaced whole (ROADMAP item 6)",
	"optimal.SolveOptions.Iters":         "the centralized solver is to be replaced whole (ROADMAP item 6)",
	"optimal.SolveOptions.Step":          "the centralized solver is to be replaced whole (ROADMAP item 6)",
	"optimal.SolveOptions.Gain":          "the centralized solver is to be replaced whole (ROADMAP item 6)",
	"mac.Options.QueueLimit":             "bench/layers.go builds mac.Options with an empty literal and is frozen",
	"topology.Config.WiFiSenseFactor":    "bench/layers.go builds topology.Config with an empty literal and is frozen",
	"node.Config.PriceInterval":          "TestPriceTermMatchesReference scripts its price reports between the automatic ticks",
	"fleet.SupervisorConfig.BackoffBase": "the retry tests run on the wall clock and shorten the backoff",
	"fleet.SupervisorConfig.BackoffMax":  "the retry tests run on the wall clock and shorten the backoff",
	"invariant.Config.Limit":             "TestViolationLimit sets the cap on recorded violations",
	"invariant.Config.Interval":          "TestChecksFire's rate-bound case ticks every 2 ms to catch a rate above a bound that just collapsed",
	"optimal.Config.Delta":               "the centralized solver is to be replaced whole (ROADMAP item 6); TestOptimalWithDelta checks the margin",
	"scenario.Options.Strict":            "an input-validation mode: scenario tests fail on unresolvable event references",
}
