// Package testonly holds one check and nothing else: no function or
// method of the program may be used only from _test.go files. Such code
// serves no command, server or example, yet readers, doc comments and
// coverage runs still pay for it. The check lives entirely in this test
// file, so it is itself no code that only tests call.
//
// It type-checks the non-test files of every package of a module with
// the standard library's go/types, importing dependencies from the
// export data that `go list -export -deps` names, and collects every use
// of a function or method in non-test files of the module and of its
// caller modules (perfbench, which imports this module through a
// replace). A function is used when a non-test file outside its own
// body names it, or when it implements an interface that non-test code
// declares or that an imported package exports (fmt.Stringer,
// json.Marshaler, http.Handler, ...). The exported functions of a
// package that other modules may import (the root earlybird facade) are
// the module's API, and count as used. Everything else is reported,
// unless allowList names it with a reason. Run it alone with
//
//	go test ./internal/testonly
package testonly

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// allowed is one allow-list entry: its kind and why it stays.
type allowed struct{ kind, reason string }

// The three kinds of entry allowList takes.
const (
	// oracle: a reference implementation that the tests of two or more
	// packages compare the program against.
	oracle = "oracle"
	// fixture: the clocks that E13's property tests
	// (TestComputeTimeCancelsSkew|TestRecorderCancelsCoreSkew, which
	// `repro -exp E13` names) run on.
	fixture = "fixture"
	// probe: a value tests read to prove a property of the program.
	probe = "probe"
)

// allowList names the functions and methods that stay although only
// tests call them, keyed as funcKey spells them.
var allowList = map[string]allowed{
	"earlybird/internal/stats.IQR": {oracle, "the sorted-quantile IQR that core's reference tests hold the selection-based iteration IQR to; stats' tests pin it"},

	"earlybird/internal/analysis.ReclaimableTime":           {oracle, "Section 5's reclaimable time from a dataset, the reference of the streamed metrics in core and analysis"},
	"earlybird/internal/analysis.IdleRatio":                 {oracle, "Section 5's idle ratio from a dataset, the reference of the streamed metrics in core and analysis"},
	"earlybird/internal/analysis.ProcessIterationNormality": {oracle, "Table 1 from a materialised dataset, the reference of the exact pass in analysis, core and the facade's tests"},

	"earlybird/internal/wire.Writer.Bytes": {oracle, "the length-prefixed field encoding that wire's BeginBytes/EndBytes are held to, and that analysis, serve and fleet tests forge records with"},

	"earlybird/internal/simclock.NewSkewed":       {fixture, "per-core offset clock of E13's property tests"},
	"earlybird/internal/simclock.NewVirtual":      {fixture, "virtual clock of E13's property tests"},
	"earlybird/internal/simclock.Virtual.Advance": {fixture, "moves E13's virtual clock between readings"},

	"earlybird/internal/serve.Server.Telemetry":     {probe, "the server's live telemetry: serve's and fleet's tests read its totals and efficiency to prove which server filled and when admission sheds, and register a synthetic tracker in it to make a worker shed"},
	"earlybird/internal/trace.NestedViews":          {probe, "counts the nested views built, which tests read before and after a call to prove the call never materialised the nested form"},
	"earlybird/internal/trace.Columnar.Fingerprint": {probe, "a columnar store's fingerprint, which the golden and no-perturbation tests read to pin a fill's bits"},
}

// goTool is the go command that runs these tests.
func goTool() string {
	if p, err := exec.LookPath("go"); err == nil {
		return p
	}
	return filepath.Join(runtime.GOROOT(), "bin", "go")
}

// listed is the part of `go list -json` output the check reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
}

// module is one module's packages, parsed and type-checked from their
// non-test files, and the import closure they were checked against.
type module struct {
	fset *token.FileSet
	own  []*checked // the packages `./...` matches
	deps []*types.Package
}

type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// load lists the module rooted at dir and type-checks its packages.
func load(dir string) (*module, error) {
	cmd := exec.Command(goTool(), "list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listed
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
		exports[p.ImportPath] = p.Export
	}
	m := &module{fset: token.NewFileSet()}
	// One importer for the whole module, so that every package sees the
	// same objects for what it imports.
	imp := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	for _, p := range pkgs {
		if p.DepOnly {
			if !p.Standard {
				continue // a package of the checked module, seen from a caller module
			}
			dep, err := imp.Import(p.ImportPath)
			if err != nil {
				return nil, err
			}
			m.deps = append(m.deps, dep)
			continue
		}
		c := &checked{info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			c.files = append(c.files, f)
		}
		conf := types.Config{Importer: imp}
		if c.pkg, err = conf.Check(p.ImportPath, m.fset, c.files, c.info); err != nil {
			return nil, err
		}
		m.own = append(m.own, c)
	}
	return m, nil
}

// funcKey names a function or method independently of which importer
// produced its object: "path.Func" or "path.Type.Method", the receiver's
// pointer dropped.
func funcKey(f *types.Func) string {
	f = f.Origin()
	if f.Pkg() == nil {
		return f.Name() // a universe method, such as error.Error
	}
	sig := f.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		switch t := t.(type) {
		case *types.Named:
			return f.Pkg().Path() + "." + t.Obj().Name() + "." + f.Name()
		case *types.Interface:
			return "interface." + f.Name()
		}
	}
	return f.Pkg().Path() + "." + f.Name()
}

// testOnly returns, sorted, "file:line: key" for every function or
// method declared in a non-test file of the module at dir that no
// non-test file of that module or of the caller modules uses. Paths are
// relative to dir.
func testOnly(dir string, callers ...string) ([]string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	target, err := load(dir)
	if err != nil {
		return nil, err
	}
	mods := []*module{target}
	for _, c := range callers {
		m, err := load(c)
		if err != nil {
			return nil, err
		}
		mods = append(mods, m)
	}

	used := map[string]bool{}
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, m := range mods {
		for _, c := range m.own {
			for _, f := range c.files {
				for _, d := range f.Decls {
					self := ""
					if fd, ok := d.(*ast.FuncDecl); ok {
						if obj, ok := c.info.Defs[fd.Name].(*types.Func); ok {
							self = funcKey(obj)
						}
					}
					ast.Inspect(d, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							if fn, ok := c.info.Uses[id].(*types.Func); ok {
								if k := funcKey(fn); k != self {
									used[k] = true
								}
							}
						}
						return true
					})
				}
			}
			for _, tv := range c.info.Types {
				if tv.IsType() {
					addIface(tv.Type)
				}
			}
			for _, name := range c.pkg.Scope().Names() {
				if tn, ok := c.pkg.Scope().Lookup(name).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
		}
		for _, dep := range m.deps {
			for _, name := range dep.Scope().Names() {
				if tn, ok := dep.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addIface(tn.Type())
				}
			}
		}
	}

	// A method that completes an interface is used through it.
	for _, c := range target.own {
		for _, name := range c.pkg.Scope().Names() {
			tn, ok := c.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if _, ok := tn.Type().Underlying().(*types.Interface); ok {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
			if mset.Len() == 0 {
				continue
			}
			sigs := map[string]string{}
			for i := 0; i < mset.Len(); i++ {
				fn := mset.At(i).Obj().(*types.Func)
				sigs[fn.Name()] = sigString(fn.Type().(*types.Signature))
			}
			for _, it := range ifaces {
				if implements(sigs, it) {
					for i := 0; i < it.NumMethods(); i++ {
						sel := mset.Lookup(it.Method(i).Pkg(), it.Method(i).Name())
						used[funcKey(sel.Obj().(*types.Func))] = true
					}
				}
			}
		}
	}

	var found []string
	for _, c := range target.own {
		api := importable(c.pkg)
		for _, f := range c.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" || fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main") ||
					api && fd.Name.IsExported() {
					continue
				}
				k := funcKey(c.info.Defs[fd.Name].(*types.Func))
				if used[k] {
					continue
				}
				pos := target.fset.Position(fd.Pos())
				rel, err := filepath.Rel(dir, pos.Filename)
				if err != nil {
					rel = pos.Filename
				}
				found = append(found, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), pos.Line, k))
			}
		}
	}
	sort.Strings(found)
	return found, nil
}

// importable reports whether other modules may import pkg: its exported
// functions are the module's API, which callers outside it use.
func importable(pkg *types.Package) bool {
	if pkg.Name() == "main" {
		return false
	}
	for _, elem := range strings.Split(pkg.Path(), "/") {
		if elem == "internal" {
			return false
		}
	}
	return true
}

// implements reports whether a method set, given as name → signature,
// has every method of it. Signatures compare as text, so an interface
// and a type checked against different importers still match.
func implements(sigs map[string]string, it *types.Interface) bool {
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		if sig, ok := sigs[m.Name()]; !ok || sig != sigString(m.Type().(*types.Signature)) {
			return false
		}
	}
	return true
}

// sigString spells a signature's parameter and result types, without
// their names, which a method and the interface it completes need not
// share.
func sigString(sig *types.Signature) string {
	tuple := func(t *types.Tuple) string {
		var parts []string
		for i := 0; i < t.Len(); i++ {
			parts = append(parts, types.TypeString(t.At(i).Type(), nil))
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
	s := tuple(sig.Params()) + tuple(sig.Results())
	if sig.Variadic() {
		s = "..." + s
	}
	return s
}

// checkAllowList refuses an entry of an unknown kind or without a reason.
func checkAllowList(list map[string]allowed) error {
	var bad []string
	for k, a := range list {
		switch {
		case a.kind != oracle && a.kind != fixture && a.kind != probe:
			bad = append(bad, fmt.Sprintf("%s: kind %q is not %s, %s or %s", k, a.kind, oracle, fixture, probe))
		case strings.TrimSpace(a.reason) == "":
			bad = append(bad, k+": no reason given")
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("allow-list entries refused:\n\t%s", strings.Join(bad, "\n\t"))
	}
	return nil
}

// TestNoTestOnlyCode fails on every function or method of this module
// that only _test.go files use, naming each, and on every allow-list
// entry that no longer names such a function.
func TestNoTestOnlyCode(t *testing.T) {
	if err := checkAllowList(allowList); err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	found, err := testOnly(root, filepath.Join(root, "perfbench"))
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, f := range found {
		k := f[strings.LastIndex(f, " ")+1:]
		flagged[k] = true
		if _, ok := allowList[k]; !ok {
			t.Errorf("%s is used only by tests: delete it, or move it into the _test.go file that uses it", f)
		}
	}
	for k := range allowList {
		if !flagged[k] {
			t.Errorf("allow-list entry %s names no test-only function: remove the entry", k)
		}
	}
}

// TestCheckFlagsFixture runs the check on the module under
// testdata/fixture: it must flag the test-only exported function,
// method and unexported function, and a function only its own body
// calls, and neither the method that completes
// an interface nor the function only the second module, caller, uses.
func TestCheckFlagsFixture(t *testing.T) {
	found, err := testOnly(filepath.Join("testdata", "fixture"), filepath.Join("testdata", "caller"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib/lib.go:12: fixture/internal/lib.ExportedOnlyTests",
		"internal/lib/lib.go:15: fixture/internal/lib.Value.MethodOnlyTests",
		"internal/lib/lib.go:18: fixture/internal/lib.unexportedOnlyTests",
		"internal/lib/lib.go:21: fixture/internal/lib.recursiveOnlyTests",
	}
	if strings.Join(found, "\n") != strings.Join(want, "\n") {
		t.Errorf("flagged:\n\t%s\nwant:\n\t%s", strings.Join(found, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// TestAllowListRefusesMissingReason shows that an entry without a
// reason, or of a kind outside the three, fails the check.
func TestAllowListRefusesMissingReason(t *testing.T) {
	for name, list := range map[string]map[string]allowed{
		"no reason": {"p.F": {oracle, " "}},
		"no kind":   {"p.F": {"", "a reason"}},
	} {
		if err := checkAllowList(list); err == nil {
			t.Errorf("%s: allow-list accepted", name)
		}
	}
	if err := checkAllowList(allowList); err != nil {
		t.Error(err)
	}
}
