package empower

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryExportedNameHasAProgram is the census behind DESIGN.md's rule
// that every field under internal/ has a program. A program is a
// non-test Go file in cmd/, internal/, bench/ or examples/. One type-check
// pass (go/types, the standard library imported from source) ties every
// write and read to the one field it names, and two rules are checked on
// the non-test files under internal/:
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
//
// Functions are held by execution, not by reference: TestEveryFunctionRuns.
// A test instrument that fails a rule on purpose — an oracle, a fault
// injector — is listed with its reason in testOnlyFields or unreadFields.
// The census fails on an unlisted field without a program, and on a
// listed field that has gained one or no longer exists.
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

	// The census: every field of a struct declared under internal/, keyed
	// "package.Type.Field". fields are the exported untagged ones the
	// write rule covers, stored every untagged one the read rule covers.
	fields := map[*types.Var]string{}
	stored := map[*types.Var]string{}
	for p, c := range pkgs {
		if !strings.HasPrefix(p, module+"/internal/") {
			continue
		}
		scope := c.pkg.Scope()
		for _, name := range scope.Names() {
			o, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			n, ok := o.Type().(*types.Named)
			if !ok {
				continue
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

	// The writes and reads, each resolved to its field.
	written := map[*types.Var]bool{}
	read := map[*types.Var]bool{}
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
	for p, c := range pkgs {
		example := strings.HasPrefix(p, module+"/examples/")
		for _, tv := range c.info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				readAll(m.Key())
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
									continue
								}
							}
						}
						if tv.Type == nil {
							continue
						}
						if u, ok := tv.Type.Underlying().(*types.Struct); ok && i < u.NumFields() && !example {
							written[u.Field(i).Origin()] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.UnaryExpr:
					// &c.F is a write (flag registration) and a read.
					if sel := target(c.info, n.X); n.Op == token.AND && sel != nil && !example {
						written[field(c.info, sel)] = true
					}
				}
				return true
			})
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
	for _, list := range []map[string]string{testOnlyFields, unreadFields} {
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
	if len(fields) == 0 {
		t.Fatal("census found no exported fields under internal/")
	}
	t.Logf("%d exported fields (%d test-only), %d fields under the read rule (%d unread)",
		len(fields), len(testOnlyFields), len(stored), len(unreadFields))
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

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

// TestEveryFunctionRuns is the execution census behind DESIGN.md's rule
// that every function under internal/ runs in a program. REACH_PROFILE
// names the coverage profile of the program corpus (scripts/e2e.sh's
// runs, every binary built with -cover -coverpkg=repro/...) in `go tool
// covdata textfmt` form, as scripts/reach.sh writes it; without it the
// test skips. Every function and method declared in a non-test file
// under internal/, exported or not, keyed "package.Name" or
// "package.Type.Method", has an executed statement block in that
// profile, or is listed with its reason in unreachedFuncs. A listed
// function that runs, or that no longer exists, fails too.
func TestEveryFunctionRuns(t *testing.T) {
	profile := os.Getenv("REACH_PROFILE")
	if profile == "" {
		t.Skip("REACH_PROFILE names no coverage profile (scripts/reach.sh writes one and runs this test)")
	}
	data, err := os.ReadFile(profile)
	if err != nil {
		t.Fatal(err)
	}
	// The profile's blocks per file, each line "repro/dir/f.go:L0.C0,L1.C1
	// statements count". A function ran if a block starting on a line of
	// its body did; gofmt puts no two functions on one line.
	type block struct{ line, count int }
	blocks := map[string][]block{}
	for _, ln := range strings.Split(string(data), "\n") {
		name, span, ok := strings.Cut(ln, ":")
		if !ok || name == "mode" {
			continue
		}
		var b block
		var col, endLine, endCol, stmts int
		if _, err := fmt.Sscanf(span, "%d.%d,%d.%d %d %d", &b.line, &col, &endLine, &endCol, &stmts, &b.count); err != nil {
			t.Fatalf("%s: %q: %v", profile, ln, err)
		}
		blocks[name] = append(blocks[name], b)
	}

	fset := token.NewFileSet()
	ran := map[string]bool{}
	at := map[string]string{}
	err = filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				key = f.Name.Name + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			from, to := fset.Position(fd.Body.Lbrace).Line, fset.Position(fd.Body.Rbrace).Line
			executed := false
			for _, b := range blocks["repro/"+filepath.ToSlash(p)] {
				executed = executed || b.line >= from && b.line <= to && b.count > 0
			}
			ran[key], at[key] = executed, fset.Position(fd.Pos()).String()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var bad, report []string
	for key, executed := range ran {
		why, listed := unreachedFuncs[key]
		switch {
		case listed && executed:
			bad = append(bad, at[key]+": "+key+" is in unreachedFuncs but runs: drop the entry")
		case !listed && !executed:
			bad = append(bad, at[key]+": no program run executes "+key)
		case listed:
			report = append(report, key+": "+why)
		}
	}
	for key, why := range unreachedFuncs {
		if _, ok := ran[key]; !ok {
			bad = append(bad, "unreachedFuncs lists "+key+", which no longer exists: drop the entry")
		}
		if why == "" {
			bad = append(bad, "unreachedFuncs lists "+key+" without a reason")
		}
	}
	sort.Strings(bad)
	sort.Strings(report)
	for _, b := range bad {
		t.Error(b)
	}
	if len(ran) == 0 {
		t.Fatal("found no functions under internal/")
	}
	t.Logf("%d functions under internal/, %d listed as run by no program:\n\t%s",
		len(ran), len(report), strings.Join(report, "\n\t"))
}

// recvName is the type name of a method's receiver: T for T, *T, T[P]
// and *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			panic(fmt.Sprintf("receiver type %T", e))
		}
	}
}

// unreachedFuncs are the functions under internal/ that no program run
// executes and that stay anyway, each with its reason. Keys are
// "package.Name" or "package.Type.Method". A reason is one of: only the
// frozen bench/layers.go calls it (ROADMAP item 10 deletes or moves
// it), a codec under fuzz, an interface requires it, a lookup the tests
// of several packages share, or only a firing invariant checker or a
// route-less pair reaches it.
var unreachedFuncs = map[string]string{
	"optimal.ConservativeOpt":          "only the frozen bench/layers.go calls it (ROADMAP item 10)",
	"sim.Engine.RunUntilIdle":          "only the frozen bench/layers.go calls it (ROADMAP item 10)",
	"wire.Header.AppendBinary":         "only the frozen bench/layers.go calls it (ROADMAP items 10 and 13)",
	"wire.Header.UnmarshalBinary":      "only the frozen bench/layers.go calls it (ROADMAP items 10 and 13)",
	"wire.DataFrame.AppendBinary":      "only the frozen bench/layers.go calls it (ROADMAP items 10 and 13)",
	"wire.DataFrame.UnmarshalBinary":   "only the frozen bench/layers.go calls it (ROADMAP items 10 and 13)",
	"wire.floatBits":                   "the DataFrame codec's float field, which only the frozen bench/layers.go runs (ROADMAP item 10)",
	"wire.bitsFloat":                   "the DataFrame codec's float field, which only the frozen bench/layers.go runs (ROADMAP item 10)",
	"wire.AckFrame.AppendBinary":       "the ack codec under fuzz: its encoding must stay WireLen() bytes, the size that sets every ack's airtime (FuzzFrameRoundTrip)",
	"wire.AckFrame.UnmarshalBinary":    "the ack codec under fuzz: its encoding must stay WireLen() bytes, the size that sets every ack's airtime (FuzzFrameRoundTrip)",
	"stats.Source.Seed":                "rand.Source requires it; ROADMAP 1(e) deletes Source",
	"fleet.SpecError.Error":            "the error interface requires it; the gateway answers a SpecError with its fields",
	"graph.Network.FindLink":           "the lookup the tests of four packages name their links with",
	"obs.Lint":                         "the exposition-format check of a sweep's -metrics file (TestLintFile, which scripts/e2e.sh runs) and of the cli, experiments, obs and scenario tests",
	"obs.validMetricName":              "obs.Lint's name rule",
	"obs.Counter.Value":                "the scenario tests hold the exported counters to the route managers' and MACs' own counts",
	"scenario.Runtime.ViolationReport": "the -invariants failure report: only a firing checker reaches it, and no valid input fires one",
	"obs.FormatTail":                   "the -invariants failure report's recorder tail: only a firing checker reaches it",
	"obs.FormatRecord":                 "the -invariants failure report's recorder tail: only a firing checker reaches it",
	"obs.RecKind.String":               "the -invariants failure report's recorder tail: only a firing checker reaches it",
	"invariant.Violation.String":       "the -invariants failure report's first line: only a firing checker reaches it",
	"optimal.routeSet.unconnected":     "the optimum of a pair with no route: the figure sweeps draw none at the corpus's sizes",
}
