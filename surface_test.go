package lsmio_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Reasons shared by several allowlist entries.
const (
	faultfsSupport = "test support: faultfs's rules, recording and crash model are what the fault tests and crash sweeps drive; no program injects filesystem faults"
	netsimSupport  = "test support: netsim fault plans are what the service's partition and message-loss tests drive; no program injects fabric faults"
)

// surfaceAllowlist names the exported functions and methods under
// internal/ that no non-test code uses but that stay, each with the one
// reason it stays. A key is the package path below the module, then the
// receiver's type name for a method, then the name.
var surfaceAllowlist = map[string]string{
	// Test-support API.
	"internal/faultfs.FS.AddRule":        faultfsSupport,
	"internal/faultfs.FS.Boundaries":     faultfsSupport,
	"internal/faultfs.FS.ClearRules":     faultfsSupport,
	"internal/faultfs.FS.CrashPoints":    faultfsSupport,
	"internal/faultfs.FS.Delayed":        faultfsSupport,
	"internal/faultfs.FS.Injected":       faultfsSupport,
	"internal/faultfs.FS.SetSleeper":     faultfsSupport,
	"internal/faultfs.FS.StartRecording": faultfsSupport,
	"internal/faultfs.FS.StateAfter":     faultfsSupport,
	"internal/faultfs.FS.StopRecording":  faultfsSupport,
	"internal/netsim.NewPlan":            netsimSupport,
	"internal/netsim.Fabric.SetPlan":     netsimSupport,
	"internal/netsim.Plan.AddRule":       netsimSupport,
	"internal/netsim.Plan.ClearRules":    netsimSupport,
	"internal/netsim.Plan.Delayed":       netsimSupport,
	"internal/netsim.Plan.Dropped":       netsimSupport,
	"internal/netsim.Plan.Duplicated":    netsimSupport,
	"internal/netsim.Plan.FlapLink":      netsimSupport,
	"internal/netsim.Plan.Heal":          netsimSupport,
	"internal/netsim.Plan.Partition":     netsimSupport,
	"internal/netsim.DefaultConfig":      "test support: the fabric a test builds a world or a front on; programs use the cluster's fabric",
	"internal/mpisim.World.Run":          "test support: launches every rank and runs the kernel in one call; programs Launch and run their kernel themselves",
	"internal/obs.Trace.Dump":            "test support: the robustness sweeps write the trace ring to TRACE_*.txt when they fail",
	"internal/obs/obstest.Counter":       "test support: obstest is a helper package that only tests import",
	"internal/obs/obstest.Gauge":         "test support: obstest is a helper package that only tests import",
	"internal/pfs.Cluster.InjectFaults":  "test support: the OST fault hook the degraded-mode and drain-retry tests drive",

	// Test seams, each the only observer of a behaviour that stays.
	"internal/pfs.Cluster.DescribeLayout": "test seam: the only observer of a file's striping (stripe count, stripe size, OSTs)",
	"internal/pfs.Cluster.Store":          "test seam: the only way to read the bytes the simulated cluster holds without charging virtual time",
	"internal/pfs.Cluster.Tracker":        "test seam: the only observer of each OST's breaker state",
	"internal/iosched.Scheduler.State":    "test seam: the only observer of a class's next-free time, deficit and refund credit",
	"internal/vfs.MemFS.TotalBytes":       "test seam: the only observer of how many bytes a run left in an in-memory store",

	// Paper API mirror.
	"internal/adios2.IO.InquireVariable": "paper API mirror: ADIOS2's IO::InquireVariable, the read side of the engine API the LSMIO plugin plugs into (paper §3.1.7)",

	// Client operations kept on purpose.
	"internal/svc.Client.Get":     "client operation: a tenant's point read, the Get of the K/V API (paper Table 2) over the service; the sessions read by Scan",
	"internal/svc.Client.Del":     "client operation: a tenant's delete, the Del of the K/V API (paper Table 2) over the service; the sessions retire steps by overwriting",
	"internal/burst.Tier.Recover": "client operation: a restarted staging tier re-queues its clean staged steps and quarantines torn ones; no program restarts a tier, the burst crash sweep does",
}

// TestInternalSurfaceIsUsed keeps the internal API to what the programs
// use: every exported function and method of a package under internal/
// must be referenced from non-test code somewhere in the module (the
// library, cmd/, examples/ or benchmark/). Exempt are methods that
// implement an interface declared in the module or in a standard-library
// package it imports, methods of the types the root package re-exports
// (the library's public API), and the allowlist above.
func TestInternalSurfaceIsUsed(t *testing.T) {
	m := loadModule(t)

	used := map[types.Object]bool{}
	for _, p := range m.pkgs {
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[obj] = true
		}
	}
	byMethod := map[string][]*types.Interface{}
	for _, iface := range m.interfaces() {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byMethod[name] = append(byMethod[name], iface)
		}
	}
	implements := func(recv types.Type, method string) bool {
		for _, iface := range byMethod[method] {
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				return true
			}
		}
		return false
	}
	public := map[*types.TypeName]bool{}
	root := m.byPath[modulePath].types.Scope()
	for _, name := range root.Names() {
		if tn, ok := root.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				public[named.Obj()] = true
			}
		}
	}

	unused := map[string]bool{} // every exported name, true when nothing uses it
	for _, p := range m.pkgs {
		rel, ok := strings.CutPrefix(p.path, modulePath+"/")
		if !ok || !strings.HasPrefix(rel, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					unused[rel+"."+name] = !used[obj]
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					fn := named.Method(i)
					if fn.Exported() {
						unused[rel+"."+name+"."+fn.Name()] = !used[fn] && !public[obj] && !implements(named, fn.Name())
					}
				}
			}
		}
	}

	var keys []string
	for key := range unused {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		_, allowed := surfaceAllowlist[key]
		if unused[key] && !allowed {
			t.Errorf("%s is exported but no non-test code uses it: delete it, or allowlist it with its reason", key)
		}
		if !unused[key] && allowed {
			t.Errorf("allowlist entry %s is used by non-test code or exempt: remove the entry", key)
		}
	}
	for key, reason := range surfaceAllowlist {
		if _, ok := unused[key]; !ok {
			t.Errorf("allowlist entry %s names no exported function or method under internal/: remove it", key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s states no reason", key)
		}
	}
}

const modulePath = "lsmio"

type modPackage struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type module struct {
	pkgs   []*modPackage
	byPath map[string]*modPackage
}

// loadModule parses the non-test files of every package in the module
// and type-checks them; standard-library imports are checked from
// source.
func loadModule(t *testing.T) *module {
	t.Helper()
	dirs := map[string]*build.Package{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); path != "." && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		if err != nil {
			return err
		}
		ip := modulePath
		if path != "." {
			ip += "/" + filepath.ToSlash(path)
		}
		dirs[ip] = bp
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	fset := token.NewFileSet()
	m := &module{byPath: map[string]*modPackage{}}
	std := importer.ForCompiler(fset, "source", nil)
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if p, ok := m.byPath[path]; ok {
			return p.types, nil
		}
		bp, ok := dirs[path]
		if !ok {
			return std.Import(path)
		}
		p := &modPackage{path: path, info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		var err error
		conf := types.Config{Importer: imp}
		if p.types, err = conf.Check(path, fset, p.files, p.info); err != nil {
			return nil, err
		}
		m.byPath[path] = p
		m.pkgs = append(m.pkgs, p)
		return p.types, nil
	}
	var paths []string
	for path := range dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := imp(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}
	return m
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// interfaces returns the predeclared error, every interface type declared
// at package level in the module and in each standard-library package it
// imports, directly or not, and the interface literals of all of those
// packages.
func (m *module) interfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if iface, ok := p.info.Types[it].Type.(*types.Interface); ok {
						out = append(out, iface)
					}
				}
				return true
			})
		}
	}
	visited := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				out = append(out, iface)
			}
		}
		if _, ok := m.byPath[p.Path()]; !ok {
			out = append(out, stdLiteralInterfaces(p)...)
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range m.pkgs {
		visit(p.types)
	}
	return out
}

// stdLiteralInterfaces returns the interface literals with methods in a
// standard-library package's source, such as errors.Is's
// interface{ Is(error) bool }, each checked in the package's scope; a
// literal that names a type local to a function is skipped.
func stdLiteralInterfaces(pkg *types.Package) []*types.Interface {
	bp, err := build.Default.Import(pkg.Path(), "", 0)
	if err != nil {
		return nil
	}
	var out []*types.Interface
	fset := token.NewFileSet()
	for _, name := range bp.GoFiles {
		src, err := os.ReadFile(filepath.Join(bp.Dir, name))
		if err != nil || !strings.Contains(string(src), "interface") {
			continue
		}
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			it, ok := n.(*ast.InterfaceType)
			if !ok || it.Methods.NumFields() == 0 {
				return true
			}
			info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
			if types.CheckExpr(fset, pkg, token.NoPos, it, info) == nil {
				if iface, ok := info.Types[it].Type.(*types.Interface); ok {
					out = append(out, iface)
				}
			}
			return false
		})
	}
	return out
}
