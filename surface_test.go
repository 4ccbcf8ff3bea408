package lsmio_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
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

// fieldAllowlist names the exported fields under internal/ that no
// non-test code sets, or none reads, but that stay, each with the one
// reason it stays. A key is the package path below the module, the
// type's name and the field's name; a key without the field's name
// covers every field of the type.
var fieldAllowlist = map[string]string{
	// Test-support types: no program writes a fault rule or reads a
	// crash point.
	"internal/faultfs.Rule":       faultfsSupport,
	"internal/faultfs.CrashPoint": faultfsSupport,
	"internal/netsim.Rule":        netsimSupport,

	// Test seam.
	"internal/iosched.ClassState": "test seam: Scheduler.State's result, the only observer of a class's next-free time, deficit and refund credit",

	// Failure-handling seams that tests turn on.
	"internal/svc.SupervisorConfig.Disabled":   "failure-handling seam: the front's fault tests turn supervision off so a crashed shard stays down and the loss path is deterministic",
	"internal/svc.FrontOptions.RequestTimeout": "failure-handling seam: the front's fault tests and the service chaos sweep bound a request end to end",
	"internal/burst.Options.DrainCtx":          "failure-handling seam: the burst tests cancel a drain between attempts",
	"internal/burst.Options.DrainPolicy":       "failure-handling seam: the burst tests retry and time out a drain step",

	// IOR options the figures leave at their defaults.
	"internal/ior.Params.Verify":         "checks every byte read back against the write pattern: the ior tests and TestSievedReadVirtualTimePinned turn it on; whether the figures do is ROADMAP item 28's decision",
	"internal/ior.Params.LSMIOBatchRead": "the paper's §5.1 batch read, which BenchmarkAblationBatchRead drives",

	// Paper API mirror.
	"internal/adios2.Variable.ElemSize": "paper API mirror: adios2::Variable's element size, set by DefineVariable; the storage layer moves bytes only",
	"internal/adios2.Variable.Count":    "paper API mirror: adios2::Variable's element count per Put, set by DefineVariable; the storage layer moves bytes only",
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
	public := m.reexported()

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
		p := &modPackage{path: path, info: newInfo()}
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

// reexported returns the types the root package re-exports as aliases:
// the library's public API.
func (m *module) reexported() map[*types.TypeName]bool {
	public := map[*types.TypeName]bool{}
	root := m.byPath[modulePath].types.Scope()
	for _, name := range root.Names() {
		if tn, ok := root.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				public[named.Obj()] = true
			}
		}
	}
	return public
}

// newInfo returns the type-checker records the surface checks read.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
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

// fieldUse is what non-test code does with a struct field.
type fieldUse struct{ set, read bool }

// fieldUses records, for every struct field the packages' code touches,
// whether it sets the field (a composite-literal key or position, an
// assignment, ++/--, &x.F) and whether it reads it (any other selection;
// &x.F counts as both, since what the pointer is used for is not known).
func fieldUses(pkgs []*modPackage) map[*types.Var]fieldUse {
	uses := map[*types.Var]fieldUse{}
	mark := func(v *types.Var, set, read bool) {
		v = v.Origin()
		u := uses[v]
		u.set = u.set || set
		u.read = u.read || read
		uses[v] = u
	}
	for _, p := range pkgs {
		written := map[*ast.SelectorExpr]bool{}
		field := func(e ast.Expr) *types.Var {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return nil
			}
			if s := p.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return s.Obj().(*types.Var)
			}
			return nil
		}
		write := func(e ast.Expr) {
			if v := field(e); v != nil {
				written[ast.Unparen(e).(*ast.SelectorExpr)] = true
				mark(v, true, false)
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					t := p.info.Types[n].Type
					if ptr, ok := t.Underlying().(*types.Pointer); ok {
						t = ptr.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if v, ok := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								mark(v, true, false)
							}
						} else {
							mark(st.Field(i), true, false)
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.UnaryExpr:
					if v := field(n.X); n.Op == token.AND && v != nil {
						mark(v, true, false)
					}
				}
				return true
			})
		}
		for sel, s := range p.info.Selections {
			if s.Kind() == types.FieldVal && !written[sel] {
				mark(s.Obj().(*types.Var), false, true)
			}
		}
	}
	return uses
}

// fieldGaps returns every exported field of an exported struct type in
// a package under internal/, keyed as the package path below the
// module, the type's name and the field's name, and mapped to what no
// code does with it: "sets", "reads", "sets or reads", or "" when the
// field is both set and read. A field with a json tag counts as both
// (encoding/json sets and reads it), and the fields of the types in
// exempt are left out.
func fieldGaps(pkgs []*modPackage, exempt map[*types.TypeName]bool) map[string]string {
	uses := fieldUses(pkgs)
	gaps := map[string]string{}
	for _, p := range pkgs {
		rel, ok := strings.CutPrefix(p.path, modulePath+"/")
		if !ok || !strings.HasPrefix(rel, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || exempt[tn] {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				v := st.Field(i)
				if !v.Exported() {
					continue
				}
				u := uses[v]
				if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
					u = fieldUse{true, true}
				}
				var gap string
				switch {
				case !u.set && !u.read:
					gap = "sets or reads"
				case !u.set:
					gap = "sets"
				case !u.read:
					gap = "reads"
				}
				gaps[rel+"."+name+"."+v.Name()] = gap
			}
		}
	}
	return gaps
}

// fieldProblems returns one message for every field in gaps that some
// code never sets or never reads and that no allowlist entry covers,
// and for every allowlist entry that states no reason, names no field
// or struct type in gaps, or covers only fields that are set and read.
// An entry is a field's key, or a type's (the package path and the
// type's name), which covers all of the type's fields.
func fieldProblems(gaps, allowlist map[string]string) []string {
	var out []string
	covered := func(key string) bool {
		typ := key[:strings.LastIndex(key, ".")]
		_, byField := allowlist[key]
		_, byType := allowlist[typ]
		return byField || byType
	}
	for key, gap := range gaps {
		if gap != "" && !covered(key) {
			out = append(out, fmt.Sprintf("%s is exported but no non-test code %s it: delete it, or allowlist it with its reason", key, gap))
		}
	}
	for entry, reason := range allowlist {
		named, unused := false, false
		for key, gap := range gaps {
			if key == entry || key[:strings.LastIndex(key, ".")] == entry {
				named = true
				unused = unused || gap != ""
			}
		}
		switch {
		case !named:
			out = append(out, fmt.Sprintf("field allowlist entry %s names no exported field or struct type under internal/: remove it", entry))
		case !unused:
			out = append(out, fmt.Sprintf("field allowlist entry %s is set and read by non-test code or exempt: remove the entry", entry))
		}
		if strings.TrimSpace(reason) == "" {
			out = append(out, fmt.Sprintf("field allowlist entry %s states no reason", entry))
		}
	}
	sort.Strings(out)
	return out
}

// TestInternalFieldsAreUsed keeps the options and results under
// internal/ to what the programs use: every exported field of an
// exported struct type in a package under internal/ must be both set
// and read by non-test code somewhere in the module. A json-tagged
// field counts as both; the fields of the types the root package
// re-exports are exempt, and so is what fieldAllowlist names.
func TestInternalFieldsAreUsed(t *testing.T) {
	m := loadModule(t)
	for _, msg := range fieldProblems(fieldGaps(m.pkgs, m.reexported()), fieldAllowlist) {
		t.Error(msg)
	}
}

// checkSources type-checks each source as a one-file package at its
// import path, in order, so a later source may import an earlier one.
func checkSources(t *testing.T, srcs ...[2]string) *module {
	t.Helper()
	fset := token.NewFileSet()
	m := &module{byPath: map[string]*modPackage{}}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := m.byPath[path]; ok {
			return p.types, nil
		}
		return nil, fmt.Errorf("no package %s", path)
	})
	for _, src := range srcs {
		f, err := parser.ParseFile(fset, src[0]+".go", src[1], 0)
		if err != nil {
			t.Fatal(err)
		}
		p := &modPackage{path: src[0], files: []*ast.File{f}, info: newInfo()}
		conf := types.Config{Importer: imp}
		if p.types, err = conf.Check(src[0], fset, p.files, p.info); err != nil {
			t.Fatal(err)
		}
		m.byPath[src[0]] = p
		m.pkgs = append(m.pkgs, p)
	}
	return m
}

func TestFieldGapsClassifies(t *testing.T) {
	m := checkSources(t,
		[2]string{modulePath + "/internal/x", `package x

type Keyed struct{ F int }
type Positional struct{ F int }
type Assigned struct{ F int }
type Addressed struct{ F int }
type Tagged struct{ F int ` + "`json:\"f\"`" + ` }
type ReadOnly struct{ F int }
type WriteOnly struct{ F int }
type Counted struct{ F int }
type Public struct{ F int }
type hidden struct{ F int }

func use() {
	k := Keyed{F: 1}
	p := []*Positional{{1}}
	var a Assigned
	a.F = 1
	var d Addressed
	set(&d.F)
	var r ReadOnly
	w := &WriteOnly{}
	w.F = 2
	var c Counted
	c.F++
	c.F += 2
	_, _, _, _, _ = k.F, p[0].F, a.F, r.F, hidden{}
}

func set(p *int) { *p = 1 }
`},
		[2]string{modulePath, `package lsmio

import "lsmio/internal/x"

type Public = x.Public
`})
	gaps := fieldGaps(m.pkgs, m.reexported())
	for _, tc := range []struct {
		field string
		gap   string
	}{
		{"Keyed.F", ""},          // keyed literal
		{"Positional.F", ""},     // positional literal, elided pointer type
		{"Assigned.F", ""},       // assignment
		{"Addressed.F", ""},      // &x.F sets and reads
		{"Tagged.F", ""},         // json tag
		{"ReadOnly.F", "sets"},   // read-only
		{"WriteOnly.F", "reads"}, // write-only
		{"Counted.F", "reads"},   // ++ and += only write
		{"Public.F", "exempt"},   // re-exported by the root package
		{"hidden.F", "exempt"},   // unexported type
	} {
		got, ok := gaps["internal/x."+tc.field]
		if !ok {
			got = "exempt"
		}
		if got != tc.gap {
			t.Errorf("%s: gap %q, want %q", tc.field, got, tc.gap)
		}
	}
}

func TestFieldProblemsChecksTheAllowlist(t *testing.T) {
	gaps := map[string]string{
		"internal/x.A.F": "sets",
		"internal/x.A.G": "",
		"internal/x.B.F": "",
		"internal/x.C.F": "reads",
		"internal/x.C.G": "sets",
		"internal/x.D.F": "sets or reads",
	}
	allowlist := map[string]string{
		"internal/x.A.F":    "",         // no reason
		"internal/x.B.F":    "a reason", // the field is now used
		"internal/x.C":      "a reason", // a whole type
		"internal/x.Gone.F": "a reason", // names nothing
		"internal/x":        "a reason", // a package is not an entry
	}
	want := []string{
		"field allowlist entry internal/x names no exported field or struct type under internal/: remove it",
		"field allowlist entry internal/x.A.F states no reason",
		"field allowlist entry internal/x.B.F is set and read by non-test code or exempt: remove the entry",
		"field allowlist entry internal/x.Gone.F names no exported field or struct type under internal/: remove it",
		"internal/x.D.F is exported but no non-test code sets or reads it: delete it, or allowlist it with its reason",
	}
	if got := fieldProblems(gaps, allowlist); !reflect.DeepEqual(got, want) {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
