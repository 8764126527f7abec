package repro

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed names the exports under internal/ that only tests may
// reach, each with the reason it stays. A key is "pkg.Name",
// "pkg.Type.Method" or a whole package path.
var testOnlyAllowed = map[string]string{
	"repro/internal/core.EngineStats.CheckQuiesced": "the golden suite's cross-package oracle: dpa, replay and core tests assert every engine quiesced through it",
	"repro/internal/match/matchtest":                "a test-support package, like net/http/httptest: differential and property tests in several packages share its generator",
	"repro/internal/obs.CounterSet.Reset":           "zeroes counters in place; core's test adapter resets matcher statistics through it, across the package boundary",
}

// TestNoTestOnlyExports fails when an exported identifier under internal/
// is reached by no non-test code anywhere in the repository, the benchmark
// module included. Such code is surface that every change must read and
// keep compiling while no program runs it: delete it, move it into a
// _test.go file, or give it a reason in testOnlyAllowed.
//
// Each package's non-test files are type-checked against the compiler's
// export data (go list -export), so the standard library is never checked
// from source.
func TestNoTestOnlyExports(t *testing.T) {
	used := map[string]bool{}           // objKey of every object a non-test file uses
	forwards := map[string][]string{}   // method key → keys of the same-named methods its body calls
	methods := map[string]*types.Func{} // every method declared in a non-test file, by objKey
	decls := map[string]types.Object{}  // exports declared under internal/, by objKey
	var ifaces []*types.Interface
	seenIface := map[*types.Interface]bool{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seenIface[it] {
			seenIface[it] = true
			ifaces = append(ifaces, it)
		}
	}
	checked := map[string]bool{}
	fset := token.NewFileSet()
	for _, m := range []module{listModule(t, "."), listModule(t, "benchmark")} {
		imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			return os.Open(m.export[path])
		})
		for _, p := range m.local {
			if checked[p.path] {
				continue
			}
			checked[p.path] = true
			var files []*ast.File
			for _, name := range p.files {
				f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
			conf := types.Config{Importer: imp.(types.ImporterFrom)}
			pkg, err := conf.Check(p.path, fset, files, info)
			if err != nil {
				t.Fatalf("type-check %s: %v", p.path, err)
			}
			// A method M whose body calls M on something else forwards:
			// that call reaches the callee only if M itself is reached.
			forwarding := map[*ast.Ident]string{}
			for _, f := range files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Recv == nil || fd.Body == nil {
						continue
					}
					fn, _ := info.Defs[fd.Name].(*types.Func)
					caller := objKey(fn)
					if caller == "" {
						continue
					}
					methods[caller] = fn
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && id.Name == fd.Name.Name {
							if _, ok := info.Uses[id].(*types.Func); ok {
								forwarding[id] = caller
							}
						}
						return true
					})
				}
			}
			for id, obj := range info.Uses {
				k := objKey(obj)
				if k == "" {
					continue
				}
				if caller, ok := forwarding[id]; ok {
					forwards[caller] = append(forwards[caller], k)
					continue
				}
				used[k] = true
			}
			for _, tv := range info.Types {
				addIface(tv.Type)
			}
			for _, dep := range allImports(pkg) {
				for _, name := range dep.Scope().Names() {
					if tn, ok := dep.Scope().Lookup(name).(*types.TypeName); ok {
						addIface(tn.Type())
					}
				}
			}
			if !strings.HasPrefix(p.path, "repro/internal/") {
				continue
			}
			for _, name := range pkg.Scope().Names() {
				obj := pkg.Scope().Lookup(name)
				if !obj.Exported() {
					continue
				}
				decls[objKey(obj)] = obj
				if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
					if n, ok := tn.Type().(*types.Named); ok {
						if _, isIface := n.Underlying().(*types.Interface); !isIface {
							for i := 0; i < n.NumMethods(); i++ {
								if fn := n.Method(i); fn.Exported() {
									decls[objKey(fn)] = fn
								}
							}
						}
					}
				}
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, it := range errorsProtocol() {
		addIface(it)
	}

	// reached: used by name, or a method an interface vouches for.
	reached := func(key string) bool {
		fn := methods[key]
		return used[key] || fn != nil && satisfiesInterface(fn, ifaces, used)
	}
	for changed := true; changed; {
		changed = false
		for caller, callees := range forwards {
			if !reached(caller) {
				continue
			}
			for _, k := range callees {
				if !used[k] {
					used[k], changed = true, true
				}
			}
		}
	}

	var bad []string
	for key, obj := range decls {
		if reached(key) || allowed(key) {
			continue
		}
		bad = append(bad, fset.Position(obj.Pos()).String()+": "+key)
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("exported, but no non-test code reaches it: %s", b)
	}
}

type listedPkg struct {
	path, dir string
	files     []string
}

// module is one go list: the export data of every package it builds, and
// the repository's own packages among them, to check from source.
type module struct {
	export map[string]string // import path → export data file
	local  []listedPkg
}

// listModule runs go list in dir over the module's packages and their
// dependencies, building export data for each.
func listModule(t *testing.T, dir string) module {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps",
		"-f", "{{.ImportPath}}\t{{.Dir}}\t{{.Export}}\t{{join .GoFiles \" \"}}\t{{.Standard}}", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	m := module{export: map[string]string{}}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 5 {
			t.Fatalf("go list: unexpected line %q", sc.Text())
		}
		m.export[f[0]] = f[2]
		if f[4] == "false" && (f[0] == "repro" || strings.HasPrefix(f[0], "repro/")) {
			m.local = append(m.local, listedPkg{path: f[0], dir: f[1], files: strings.Fields(f[3])})
		}
	}
	return m
}

// objKey names a package-level object or a method of a named type as
// "pkg.Name" or "pkg.Type.Method"; anything else (locals, fields,
// interface methods) gets "".
func objKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		sig := fn.Type().(*types.Signature)
		if recv := sig.Recv(); recv != nil {
			typ := recv.Type()
			if p, ok := typ.(*types.Pointer); ok {
				typ = p.Elem()
			}
			n, ok := typ.(*types.Named)
			if !ok {
				return ""
			}
			return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func allowed(key string) bool {
	for k := range testOnlyAllowed {
		if key == k || strings.HasPrefix(key, k+".") {
			return true
		}
	}
	return false
}

// satisfiesInterface reports whether fn's receiver type implements some
// interface that has a method of fn's name: such a method is reached
// through the interface, where no use names it. An interface declared
// under internal/ reaches fn only if non-test code calls that method
// through it (used holds its "pkg.Iface.Method" key); one declared
// elsewhere (error, fmt.Stringer, sort.Interface) is called by code this
// check does not read, so implementing it is enough.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface, used map[string]bool) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, it := range ifaces {
		m, _, _ := types.LookupFieldOrMethod(it, false, nil, fn.Name())
		if m == nil {
			continue
		}
		if k := objKey(m); strings.HasPrefix(k, "repro/internal/") && !used[k] {
			continue
		}
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// allImports returns pkg's imports, transitively.
func allImports(pkg *types.Package) []*types.Package {
	seen := map[*types.Package]bool{}
	var out []*types.Package
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		for _, dep := range p.Imports() {
			if !seen[dep] {
				seen[dep] = true
				out = append(out, dep)
				walk(dep)
			}
		}
	}
	walk(pkg)
	return out
}

// errorsProtocol returns the interfaces package errors asserts inline
// (Unwrap, Is, As), which no package scope declares.
func errorsProtocol() []*types.Interface {
	errT := types.Universe.Lookup("error").Type()
	anyT := types.Universe.Lookup("any").Type()
	method := func(name string, param, result types.Type) *types.Interface {
		var params *types.Tuple
		if param != nil {
			params = types.NewTuple(types.NewVar(token.NoPos, nil, "", param))
		}
		sig := types.NewSignatureType(nil, nil, nil, params, types.NewTuple(types.NewVar(token.NoPos, nil, "", result)), false)
		it := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil)
		return it.Complete()
	}
	return []*types.Interface{
		method("Unwrap", nil, errT),
		method("Unwrap", nil, types.NewSlice(errT)),
		method("Is", errT, types.Typ[types.Bool]),
		method("As", anyT, types.Typ[types.Bool]),
	}
}
