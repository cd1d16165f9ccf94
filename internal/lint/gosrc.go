package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Rule IDs of the Go determinism family.
const (
	RuleWallClock = "det/wallclock" // time.Now and friends in a deterministic package
	RuleRand      = "det/rand"      // global math/rand (unseeded, process-global state)
	RuleMapRange  = "det/maprange"  // map iteration feeding an output sink unsorted
	RuleExit      = "det/exit"      // os.Exit / log.Fatal outside cmd/ and internal/cli
	RuleFloatSum  = "det/floatsum"  // float accumulation in map iteration order
)

// DeterministicPackages are the package directories whose byte-identical-
// per-seed guarantee is non-negotiable: det/wallclock and det/rand findings
// here can never be exempted, not even in lint.allow. The wall-clock
// service layer (server, jobs, cache, obs) is outside this set and earns
// its exemptions rule-by-rule in lint.allow instead.
var DeterministicPackages = []string{
	"internal/dvs",
	"internal/loc",
	"internal/loc/interval",
	"internal/loc/locrt",
	"internal/npu",
	"internal/policy",
	"internal/power",
	"internal/sim",
	"internal/span",
	"internal/stats",
	"internal/trace",
}

// defaultProgramLayer lists directory prefixes that ARE programs rather
// than library code: the process-exit rule and the wall-clock rules do not
// apply there (a command reading the wall clock or exiting is its job).
var defaultProgramLayer = []string{"cmd", "examples", "internal/cli"}

// wallClockFuncs are the time package entry points that read the wall
// clock (or schedule against it).
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Tick": true, "NewTicker": true, "NewTimer": true, "After": true, "AfterFunc": true,
}

// seededRandFuncs are the math/rand names that do NOT touch the global
// source; everything else in the package does.
var seededRandFuncs = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// GoConfig configures the Go determinism linter.
type GoConfig struct {
	// Root is the repository root (where go.mod lives).
	Root string
	// Module overrides the module path; read from go.mod when empty.
	Module string
	// Deterministic overrides DeterministicPackages — the packages whose
	// det/wallclock and det/rand findings may not be allowlisted (nil
	// keeps the default; tests point it at fixture directories).
	Deterministic []string
	// ProgramLayer overrides the prefixes exempt from det/exit and the
	// wall-clock rules (nil = cmd, examples, internal/cli).
	ProgramLayer []string
	// Allow is the per-package allowlist; nil allows nothing.
	Allow *Allowlist
}

// LintGo runs the determinism rules over the given package directories
// (slash-separated, relative to Root; nil means every package found under
// Root). Test files are never linted. Returned diagnostics are sorted and
// already filtered through the allowlist and //nepvet:allow suppressions.
func LintGo(cfg GoConfig, dirs []string) ([]Diag, error) {
	root, err := filepath.Abs(cfg.Root)
	if err != nil {
		return nil, err
	}
	module := cfg.Module
	if module == "" {
		module, err = ModulePath(root)
		if err != nil {
			return nil, err
		}
	}
	if dirs == nil {
		dirs, err = FindGoPackages(root)
		if err != nil {
			return nil, err
		}
	}
	det := cfg.Deterministic
	if det == nil {
		det = DeterministicPackages
	}
	programLayer := cfg.ProgramLayer
	if programLayer == nil {
		programLayer = defaultProgramLayer
	}
	detSet := map[string]bool{}
	for _, d := range det {
		detSet[path.Clean(d)] = true
	}
	// The allowlist may never waive the determinism guarantee itself.
	for _, e := range cfg.Allow.Entries() {
		if detSet[e[0]] && (e[1] == RuleWallClock || e[1] == RuleRand) {
			return nil, fmt.Errorf("lint.allow cannot exempt %s in deterministic package %s", e[1], e[0])
		}
	}

	// The source importer compiles stdlib dependencies from $GOROOT/src;
	// with cgo disabled every package the repo uses has a pure-Go build.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	imp := &moduleImporter{
		fset:   fset,
		root:   root,
		module: module,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:  map[string]*types.Package{},
	}

	var diags []Diag
	for _, dir := range dirs {
		dir = path.Clean(dir)
		ds, err := lintGoPackage(fset, imp, root, module, dir, !exempted(dir, programLayer), cfg.Allow)
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
	}
	SortDiags(diags)
	return diags, nil
}

func exempted(dir string, prefixes []string) bool {
	for _, p := range prefixes {
		p = path.Clean(p)
		if dir == p || strings.HasPrefix(dir, p+"/") {
			return true
		}
	}
	return false
}

// ModulePath reads the module path from root/go.mod.
func ModulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module line in %s/go.mod", root)
}

// FindGoPackages walks root and returns every directory holding at least
// one non-test .go file, slash-relative and sorted ("." for the root
// package). testdata and hidden directories are skipped.
func FindGoPackages(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			rel, err := filepath.Rel(root, filepath.Dir(p))
			if err != nil {
				return err
			}
			rel = filepath.ToSlash(rel)
			if len(out) == 0 || out[len(out)-1] != rel {
				out = append(out, rel)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	// WalkDir visits files in order, but dedupe defensively.
	out = dedupe(out)
	return out, nil
}

func dedupe(xs []string) []string {
	var out []string
	for _, x := range xs {
		if len(out) == 0 || out[len(out)-1] != x {
			out = append(out, x)
		}
	}
	return out
}

// lintGoPackage parses, type-checks and walks one package directory.
// library reports whether the wall-clock and exit rules apply (false for
// the program layer).
func lintGoPackage(fset *token.FileSet, imp *moduleImporter, root, module, dir string, library bool, allow *Allowlist) ([]Diag, error) {
	abs := filepath.Join(root, filepath.FromSlash(dir))
	files, err := parsePackageDir(fset, abs, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, nil
	}
	pkgPath := module
	if dir != "." {
		pkgPath = module + "/" + dir
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", pkgPath, err)
	}
	// Seed the importer cache only if this path was never imported: packages
	// already in the cache are interned — other cached packages hold
	// references to their type objects, and replacing the entry with this
	// fresh check would make later packages see two non-identical versions
	// of the same type (cached dependants vs the fresh import).
	if _, ok := imp.cache[pkgPath]; !ok {
		imp.cache[pkgPath] = pkg
	}

	w := &goWalker{
		fset:    fset,
		root:    root,
		dir:     dir,
		info:    info,
		library: library,
	}
	for _, f := range files {
		w.suppress = suppressions(fset, f)
		ast.Inspect(f, w.visit)
	}
	var out []Diag
	for _, d := range w.diags {
		if allow.Allowed(dir, d.Rule) {
			continue
		}
		out = append(out, d)
	}
	return out, nil
}

func parsePackageDir(fset *token.FileSet, dir string, mode parser.Mode) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// suppressions collects //nepvet:allow comments. A comment suppresses a
// rule on its own line and on the line immediately after (so it can sit on
// the offending line or directly above it).
func suppressions(fset *token.FileSet, f *ast.File) map[int]map[string]bool {
	sup := map[int]map[string]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
			text = strings.TrimSpace(text)
			rest, ok := strings.CutPrefix(text, "nepvet:allow")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue
			}
			rule := fields[0]
			line := fset.Position(c.Pos()).Line
			for _, l := range []int{line, line + 1} {
				if sup[l] == nil {
					sup[l] = map[string]bool{}
				}
				sup[l][rule] = true
			}
		}
	}
	return sup
}

// goWalker applies the det/* rules to one file.
type goWalker struct {
	fset     *token.FileSet
	root     string
	dir      string
	info     *types.Info
	library  bool
	suppress map[int]map[string]bool
	diags    []Diag
}

func (w *goWalker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		w.checkSelector(n)
	case *ast.RangeStmt:
		w.checkMapRange(n)
	}
	return true
}

// pkgSel resolves pkg.Name selectors where pkg is an imported package
// name; it returns the package path, the selected name and the object.
func (w *goWalker) pkgSel(sel *ast.SelectorExpr) (string, string, types.Object) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", nil
	}
	pn, ok := w.info.Uses[id].(*types.PkgName)
	if !ok {
		return "", "", nil
	}
	return pn.Imported().Path(), sel.Sel.Name, w.info.Uses[sel.Sel]
}

// checkSelector applies the wall-clock, global-rand and process-exit rules
// to every pkg.Name use — calls and value uses alike, so indirections such
// as "q.now = time.Now" are caught too.
func (w *goWalker) checkSelector(sel *ast.SelectorExpr) {
	if !w.library {
		return
	}
	pkg, name, obj := w.pkgSel(sel)
	if obj == nil {
		return
	}
	if _, isFunc := obj.(*types.Func); !isFunc {
		return // type and const selections (time.Time, rand.Rand) are fine
	}
	at := sel.Sel
	switch {
	case pkg == "time" && wallClockFuncs[name]:
		w.report(at, RuleWallClock,
			fmt.Sprintf("wall-clock time.%s in package %s (deterministic code derives time from the simulation clock; service packages may exempt in lint.allow)", name, w.dir))
	case (pkg == "math/rand" || pkg == "math/rand/v2") && !seededRandFuncs[name]:
		w.report(at, RuleRand,
			fmt.Sprintf("global rand.%s uses process-global random state (use a seeded *rand.Rand)", name))
	case pkg == "os" && name == "Exit":
		w.report(at, RuleExit,
			fmt.Sprintf("os.Exit outside cmd/ and internal/cli (package %s should return an error)", w.dir))
	case pkg == "log" && (strings.HasPrefix(name, "Fatal") || strings.HasPrefix(name, "Panic")):
		w.report(at, RuleExit,
			fmt.Sprintf("log.%s outside cmd/ and internal/cli (package %s should return an error)", name, w.dir))
	}
}

// sinkNames are method names that emit bytes in call order; reaching one
// from inside a map iteration makes the output depend on map order.
var sinkNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteTo": true, "Encode": true,
}

// fmtSinks are fmt functions that write to a stream (Sprint* and Errorf
// only build values, so they are not sinks by themselves).
var fmtSinks = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

func (w *goWalker) checkMapRange(rs *ast.RangeStmt) {
	t := w.info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	// Scan the body for output sinks and order-sensitive float
	// accumulation. Loops that only collect keys for a later sort have
	// neither and pass untouched.
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sink, at := w.sinkCall(n); sink != "" {
				w.report(at, RuleMapRange,
					fmt.Sprintf("map iteration feeds %s without an intervening sort; iterate sorted keys for byte-stable output", sink))
			}
		case *ast.AssignStmt:
			w.checkFloatAccum(n)
			w.checkStringConcat(n)
		}
		return true
	})
}

// checkStringConcat flags s += … on strings inside a map-range body:
// building output text in map iteration order is the same hazard as
// writing it directly.
func (w *goWalker) checkStringConcat(as *ast.AssignStmt) {
	if as.Tok != token.ADD_ASSIGN || len(as.Lhs) != 1 {
		return
	}
	t := w.info.TypeOf(as.Lhs[0])
	if t == nil {
		return
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsString == 0 {
		return
	}
	w.report(as, RuleMapRange,
		"string concatenation in map iteration order; iterate sorted keys for byte-stable output")
}

func (w *goWalker) sinkCall(call *ast.CallExpr) (string, ast.Node) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	if pkg, fn, _ := w.pkgSel(sel); pkg == "fmt" && fmtSinks[fn] {
		return "fmt." + fn, sel.Sel
	}
	if !sinkNames[sel.Sel.Name] {
		return "", nil
	}
	// A method named Write/Encode/… on any receiver counts; the common
	// ones are io.Writer, strings.Builder and json.Encoder.
	if _, isPkg := w.info.Uses[identOf(sel.X)].(*types.PkgName); isPkg {
		return "", nil
	}
	return "(…)." + sel.Sel.Name, sel.Sel
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := e.(*ast.Ident)
	return id
}

// checkFloatAccum flags x += v (and -=, *=, /=) and x = x + v on floats
// inside a map-range body: float arithmetic is not associative, so the
// accumulated value depends on iteration order.
func (w *goWalker) checkFloatAccum(as *ast.AssignStmt) {
	order := false
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		order = true
	case token.ASSIGN:
		// x = x <op> v self-assignment form.
		if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if bin, ok := as.Rhs[0].(*ast.BinaryExpr); ok {
				switch bin.Op {
				case token.ADD, token.SUB, token.MUL, token.QUO:
					order = sameExprText(as.Lhs[0], bin.X)
				}
			}
		}
	}
	if !order || len(as.Lhs) != 1 {
		return
	}
	t := w.info.TypeOf(as.Lhs[0])
	if t == nil {
		return
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsFloat == 0 {
		return
	}
	w.report(as, RuleFloatSum,
		"float accumulation in map iteration order is not associative; iterate sorted keys or document the ordering")
}

// sameExprText is a conservative structural comparison for the x = x + v
// pattern (identifiers and simple selectors only).
func sameExprText(a, b ast.Expr) bool {
	switch a := a.(type) {
	case *ast.Ident:
		bi, ok := b.(*ast.Ident)
		return ok && a.Name == bi.Name
	case *ast.SelectorExpr:
		bs, ok := b.(*ast.SelectorExpr)
		return ok && a.Sel.Name == bs.Sel.Name && sameExprText(a.X, bs.X)
	}
	return false
}

func (w *goWalker) report(at ast.Node, rule, msg string) {
	pos := w.fset.Position(at.Pos())
	if rules, ok := w.suppress[pos.Line]; ok && rules[rule] {
		return
	}
	file := pos.Filename
	if rel, err := filepath.Rel(w.root, file); err == nil {
		file = filepath.ToSlash(rel)
	}
	d := Diag{File: file, Line: pos.Line, Col: pos.Column, Rule: rule, Msg: msg}
	// Dedupe identical findings (nested map ranges rescan inner bodies).
	for _, have := range w.diags {
		if have == d {
			return
		}
	}
	w.diags = append(w.diags, d)
}
