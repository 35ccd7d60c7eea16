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

// TestEveryExportedNameHasAProgram is the census behind DESIGN.md's rule
// that every exported name under internal/ has a program. A program is a
// non-test Go file in cmd/, internal/, bench/ or examples/. One type-check
// pass (go/types, the standard library imported from source) ties every
// write, read and call to the one object it names, and three rules are
// checked on the non-test files under internal/:
//
//   - Fields. Every exported field of a struct declared there, untagged
//     and not embedded, is written by a program outside examples/: a
//     composite-literal key (`T{F: v}`, its type spelled out or elided),
//     the left side of an assignment or ++/-- (`c.F = v`), or an address
//     taken (`&c.F`, as flag registration does). A struct tag marks a
//     field encoding/json writes. Writes from tests and examples do not
//     count: a knob only they turn is a code path no program runs.
//   - Reads. Every untagged field of a struct declared there, exported
//     or not, that a program writes — by the rule above, or positionally
//     in a composite literal — is read by a program: a selector use that
//     is not the target of =, op=, ++/-- (`c.F = v`, `c.F[i] += v`) or a
//     composite-literal key. A struct compared with == or used as a map
//     key reads all its fields. State only written is work done for no
//     one.
//   - Functions. Every exported function and method is referenced by a
//     program (called, or taken as a value), implements a method of an
//     interface a program calls or hands a value to, or is one of the
//     methods the standard library finds by reflection (reflected).
//     A function only tests call is a second implementation or an
//     observer of state the tests can read in-package.
//
// A test instrument that fails a rule on purpose — an oracle, a fault
// injector, a wire format under fuzz — is listed with its reason in
// testOnlyFields, unreadFields or testOnlyFuncs. The census fails on an
// unlisted name without a program, and on a listed name that has gained
// one or no longer exists.
func TestEveryExportedNameHasAProgram(t *testing.T) {
	const module = "repro"
	var dirs []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || p == filepath.Join("bench", "out")) {
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
			Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{},
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

	// The census: every field, function and method declared under
	// internal/, keyed "package.Name" or "package.Type.Name". fields are
	// the exported untagged ones the write rule covers, stored every
	// untagged one the read rule covers.
	fields := map[*types.Var]string{}
	stored := map[*types.Var]string{}
	funcs := map[*types.Func]string{}
	var named []*types.Named // the named non-interface types declared there
	for p, c := range pkgs {
		if !strings.HasPrefix(p, module+"/internal/") {
			continue
		}
		scope := c.pkg.Scope()
		for _, name := range scope.Names() {
			switch o := scope.Lookup(name).(type) {
			case *types.Func:
				if o.Exported() {
					funcs[o] = c.pkg.Name() + "." + name
				}
			case *types.TypeName:
				n, ok := o.Type().(*types.Named)
				if !ok || types.IsInterface(n) {
					continue
				}
				named = append(named, n)
				for i := 0; i < n.NumMethods(); i++ {
					if m := n.Method(i); m.Exported() {
						funcs[m] = c.pkg.Name() + "." + name + "." + m.Name()
					}
				}
				st, ok := n.Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); !f.Embedded() && st.Tag(i) == "" {
						stored[f] = c.pkg.Name() + "." + name + "." + f.Name()
						if f.Exported() {
							fields[f] = stored[f]
						}
					}
				}
			}
		}
	}

	// The writes, reads and references, each resolved to its object.
	written := map[*types.Var]bool{}
	read := map[*types.Var]bool{}
	used := map[*types.Func]bool{}
	ifaces := map[*types.Interface]bool{} // interfaces a program calls or converts to
	// target is the field an assignment, ++/-- or & writes through
	// (`c.F = v`, `c.F[i]++`, `&c.F`), or nil.
	target := func(info *types.Info, e ast.Expr) *ast.SelectorExpr {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					return x
				}
				return nil
			default:
				return nil
			}
		}
	}
	field := func(info *types.Info, sel *ast.SelectorExpr) *types.Var {
		return info.Selections[sel].Obj().(*types.Var).Origin()
	}
	// readAll marks every field of a struct compared with == or used as
	// a map key read, and those of the structs and arrays inside it.
	var readAll func(t types.Type)
	readAll = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Array:
			readAll(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i).Origin(); !read[f] {
					read[f] = true
					readAll(f.Type())
				}
			}
		}
	}
	// into records a value of a concrete type handed to an interface.
	into := func(info *types.Info, e ast.Expr, to types.Type) {
		if it, ok := to.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			if tv, ok := info.Types[e]; ok && !types.IsInterface(tv.Type) {
				ifaces[it] = true
			}
		}
	}
	for p, c := range pkgs {
		example := strings.HasPrefix(p, module+"/examples/")
		for _, tv := range c.info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				readAll(m.Key())
			}
		}
		for _, o := range c.info.Uses {
			if fn, ok := o.(*types.Func); ok {
				used[fn.Origin()] = true
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if it, ok := recv.Type().Underlying().(*types.Interface); ok {
						ifaces[it] = true
					}
				}
			}
		}
		for _, f := range c.files {
			targets := map[*ast.SelectorExpr]bool{} // selectors written through, not read
			write := func(e ast.Expr) {
				if sel := target(c.info, e); sel != nil {
					targets[sel] = true
					if !example {
						written[field(c.info, sel)] = true
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if sel := c.info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal && !targets[n] {
						read[field(c.info, n)] = true
					}
				case *ast.BinaryExpr:
					if tv, ok := c.info.Types[n.X]; ok && (n.Op == token.EQL || n.Op == token.NEQ) {
						readAll(tv.Type)
					}
				case *ast.CompositeLit:
					tv := c.info.Types[n]
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := c.info.Uses[id].(*types.Var); ok && v.IsField() {
									if !example {
										written[v.Origin()] = true
									}
									into(c.info, kv.Value, v.Type())
									continue
								}
							}
							elt = kv.Value
						}
						if tv.Type == nil {
							continue
						}
						switch u := tv.Type.Underlying().(type) {
						case *types.Slice:
							into(c.info, elt, u.Elem())
						case *types.Array:
							into(c.info, elt, u.Elem())
						case *types.Map:
							into(c.info, elt, u.Elem())
						case *types.Struct:
							if i < u.NumFields() {
								if !example {
									written[u.Field(i).Origin()] = true
								}
								into(c.info, elt, u.Field(i).Type())
							}
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						write(lhs)
						if len(n.Lhs) == len(n.Rhs) {
							if tv, ok := c.info.Types[lhs]; ok {
								into(c.info, n.Rhs[i], tv.Type)
							}
						}
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.UnaryExpr:
					// &c.F is a write (flag registration) and a read.
					if sel := target(c.info, n.X); n.Op == token.AND && sel != nil && !example {
						written[field(c.info, sel)] = true
					}
				case *ast.CallExpr:
					tv, ok := c.info.Types[n.Fun]
					if !ok {
						return true
					}
					if tv.IsType() {
						if len(n.Args) == 1 {
							into(c.info, n.Args[0], tv.Type)
						}
						return true
					}
					sig, ok := tv.Type.Underlying().(*types.Signature)
					if !ok {
						return true
					}
					for i, a := range n.Args {
						var pt types.Type
						switch {
						case sig.Variadic() && i >= sig.Params().Len()-1:
							pt = sig.Params().At(sig.Params().Len() - 1).Type()
							if n.Ellipsis == token.NoPos {
								pt = pt.(*types.Slice).Elem()
							}
						case i < sig.Params().Len():
							pt = sig.Params().At(i).Type()
						default:
							continue
						}
						into(c.info, a, pt)
					}
				case *ast.FuncDecl:
					returns(c.info, n.Body, c.info.Defs[n.Name].Type(), into)
				case *ast.FuncLit:
					returns(c.info, n.Body, c.info.Types[n].Type, into)
				}
				return true
			})
		}
	}
	// A method a program reaches only through an interface.
	for _, n := range named {
		for it := range ifaces {
			if !types.Implements(n, it) && !types.Implements(types.NewPointer(n), it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				if obj, _, _ := types.LookupFieldOrMethod(n, true, n.Obj().Pkg(), it.Method(i).Name()); obj != nil {
					used[obj.(*types.Func)] = true
				}
			}
		}
	}

	var bad []string
	audit := func(list map[string]string, listName, short string, pos token.Pos, has bool, none string) {
		_, allowed := list[short]
		at := fset.Position(pos).String()
		switch {
		case allowed && has:
			bad = append(bad, at+": "+short+" is in "+listName+" but has a program: drop the entry")
		case !allowed && !has:
			bad = append(bad, at+": "+none+short)
		}
	}
	seen := map[string]bool{}
	for f, short := range fields {
		seen[short] = true
		audit(testOnlyFields, "testOnlyFields", short, f.Pos(), written[f], "no program writes ")
	}
	for f, short := range stored {
		seen[short] = true
		audit(unreadFields, "unreadFields", short, f.Pos(), read[f] || !written[f], "no program reads ")
	}
	for fn, short := range funcs {
		seen[short] = true
		audit(testOnlyFuncs, "testOnlyFuncs", short, fn.Pos(), used[fn] || reflected[fn.Name()], "no program calls ")
	}
	for _, list := range []map[string]string{testOnlyFields, unreadFields, testOnlyFuncs} {
		for short, why := range list {
			if !seen[short] {
				bad = append(bad, "the census lists "+short+", which no longer exists: drop the entry")
			}
			if why == "" {
				bad = append(bad, "the census lists "+short+" without a reason")
			}
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
	if len(fields) == 0 || len(funcs) == 0 {
		t.Fatal("census found no exported fields or functions under internal/")
	}
	t.Logf("%d exported fields (%d test-only), %d fields under the read rule (%d unread), %d exported functions and methods (%d test-only)",
		len(fields), len(testOnlyFields), len(stored), len(unreadFields), len(funcs), len(testOnlyFuncs))
}

// returns hands into, for each return statement of one function body
// (not of the function literals inside it), each value with the result
// type of sig it is returned as.
func returns(info *types.Info, body *ast.BlockStmt, sig types.Type, into func(*types.Info, ast.Expr, types.Type)) {
	s := sig.(*types.Signature)
	if body == nil || s.Results().Len() == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			if len(n.Results) == s.Results().Len() {
				for i, r := range n.Results {
					into(info, r, s.Results().At(i).Type())
				}
			}
		}
		return true
	})
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// reflected are the method names the standard library finds on a value
// by reflection or a type assertion rather than by a call in this module.
var reflected = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// testOnlyFields are the fields no program writes that stay settable
// anyway, each with its reason. Keys are "package.Type.Field".
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
	"optimal.Problem.Utilities":          "the solver's tests substitute utilities to reach park/wake transitions; the field goes with the solver (ROADMAP item 6)",
}

// unreadFields are the fields a program writes and no program reads
// that stay anyway, each with its reason. Keys are "package.Type.Field".
var unreadFields = map[string]string{
	"experiments.ChurnConfig.Shards": "bench/layers.go writes it and is frozen (ROADMAP item 2's benchmark PR deletes both)",
	"congestion.Controller.replayed": "the equivalence suite asserts that periodic trajectories replay and the stepping oracle never does; bit-equality alone cannot tell",
	"optimal.Solution.X":             "the solver's bit-equality tests compare per-route rates; the field goes with the solver (ROADMAP item 6)",
	"optimal.Solution.LiveShare":     "the solver's tests and BenchmarkOptimalSolve read it; the field goes with the solver (ROADMAP item 6)",
	"optimal.Solution.freezes":       "park_test.go drives each freeze/thaw/park/wake/re-anchor transition by these counts; they go with the solver (ROADMAP item 6)",
	"optimal.Solution.thaws":         "park_test.go drives each freeze/thaw/park/wake/re-anchor transition by these counts; they go with the solver (ROADMAP item 6)",
	"optimal.Solution.parks":         "park_test.go drives each freeze/thaw/park/wake/re-anchor transition by these counts; they go with the solver (ROADMAP item 6)",
	"optimal.Solution.wakes":         "park_test.go drives each freeze/thaw/park/wake/re-anchor transition by these counts; they go with the solver (ROADMAP item 6)",
	"optimal.Solution.reanchors":     "park_test.go drives each freeze/thaw/park/wake/re-anchor transition by these counts; they go with the solver (ROADMAP item 6)",
}

// testOnlyFuncs are the exported functions and methods no program calls
// that stay anyway, each with its reason. Keys are "package.Name" or
// "package.Type.Method".
var testOnlyFuncs = map[string]string{
	"congestion.Controller.MaxAirtimeViolation": "the feasibility oracle of the controller's tests",
	"obs.Lint":                         "CI's exposition-format check of a sweep's -metrics file (TestLintFile)",
	"obs.Counter.Value":                "the scenario tests hold the exported counters to the route managers' and MACs' own counts",
	"node.Emulation.AddExternalSource": "the instrument for the §4.3 external-traffic tests",
	"graph.Network.FindLink":           "the lookup the tests of five packages name their links with",
	"wire.AckFrame.AppendBinary":       "the ack codec: its encoding must stay WireLen() bytes, the size that sets every ack's airtime (FuzzFrameRoundTrip)",
	"wire.AckFrame.UnmarshalBinary":    "the ack codec: its encoding must stay WireLen() bytes, the size that sets every ack's airtime (FuzzFrameRoundTrip)",
}
