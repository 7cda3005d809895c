// Package metricname implements the horselint analyzer that keeps
// telemetry instrument names on-catalog.
//
// internal/telemetry creates instruments on first use, so a typo'd
// family name ("vmm_pause_totl") silently mints a new, never-documented
// instrument instead of failing. The analyzer checks every constant
// string (a literal or a named constant) passed as a family name to the
// Registry instrument constructors (Counter, Gauge, Histogram,
// HistogramShaped) and to InstrumentName against the single source of
// truth in internal/telemetry/catalog.go — the same table the DESIGN.md
// §8 docs test consumes — and checks constant label keys against the
// catalog entry's declared label set. Dynamically computed names pass through
// unchecked (they are rare and covered by the catalog sync test at
// runtime). Test files are exempt: tests mint scratch instruments.
package metricname

import (
	"go/ast"
	"go/constant"
	"sort"
	"strings"

	"github.com/horse-faas/horse/internal/analysis/lint"
	"github.com/horse-faas/horse/internal/telemetry"
)

// Name is the analyzer's directive name: //horselint:allow-metricname.
const Name = "metricname"

// Instrument is one catalog entry as the analyzer needs it.
type Instrument struct {
	Kind   string // "counter", "gauge", or "histogram"
	Labels []string
}

// methods maps the instrument-constructor method names to the index of
// the first label argument and the instrument kind they create ("" for
// InstrumentName, which composes names of any kind).
var methods = map[string]struct {
	labelStart int
	kind       string
}{
	"Counter":         {1, "counter"},
	"Gauge":           {1, "gauge"},
	"Histogram":       {1, "histogram"},
	"HistogramShaped": {3, "histogram"},
	"InstrumentName":  {1, ""},
}

// Default returns the analyzer bound to the repository's catalog.
func Default() *lint.Analyzer {
	catalog := make(map[string]Instrument)
	for _, def := range telemetry.Catalog() {
		catalog[def.Family] = Instrument{Kind: string(def.Kind), Labels: def.Labels}
	}
	return New(catalog)
}

// New returns a metricname analyzer checking against the given catalog.
func New(catalog map[string]Instrument) *lint.Analyzer {
	return &lint.Analyzer{
		Name: Name,
		Doc:  "checks instrument family names and label keys passed to the telemetry registry against the instrument catalog",
		Run: func(pass *lint.Pass) error {
			for _, f := range pass.Pkg.Files {
				if f.Test {
					continue
				}
				checkFile(pass, f, catalog)
			}
			return nil
		},
	}
}

func checkFile(pass *lint.Pass, f *lint.File, catalog map[string]Instrument) {
	ast.Inspect(f.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var method string
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			method = fun.Sel.Name
		case *ast.Ident:
			method = fun.Name
		default:
			return true
		}
		m, ok := methods[method]
		if !ok || len(call.Args) == 0 {
			return true
		}
		family, ok := stringConst(pass.Pkg, call.Args[0])
		if !ok {
			return true
		}
		def, known := catalog[family]
		if !known {
			pass.Reportf(call.Args[0].Pos(),
				"instrument family %q is not in the telemetry catalog (internal/telemetry/catalog.go); add it there and to DESIGN.md §8, or fix the name (known families: %s)",
				family, nearest(family, catalog))
			return true
		}
		if m.kind != "" && def.Kind != m.kind {
			pass.Reportf(call.Args[0].Pos(),
				"instrument family %q is a %s in the catalog but is used here as a %s",
				family, def.Kind, m.kind)
		}
		checkLabels(pass, call, m.labelStart, family, def)
		return true
	})
}

// checkLabels verifies constant label keys (the even-offset variadic
// arguments) against the catalog entry's declared set.
func checkLabels(pass *lint.Pass, call *ast.CallExpr, start int, family string, def Instrument) {
	declared := make(map[string]bool, len(def.Labels))
	for _, l := range def.Labels {
		declared[l] = true
	}
	for i := start; i < len(call.Args); i += 2 {
		key, ok := stringConst(pass.Pkg, call.Args[i])
		if !ok {
			continue
		}
		if !declared[key] {
			pass.Reportf(call.Args[i].Pos(),
				"label key %q is not declared for instrument %q (catalog labels: %s)",
				key, family, strings.Join(def.Labels, ", "))
		}
	}
}

// stringConst returns the value of a constant string expression.
func stringConst(pkg *lint.Package, e ast.Expr) (string, bool) {
	v := pkg.Info.Types[e].Value
	if v == nil || v.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(v), true
}

// nearest lists up to three catalog families sharing a prefix with the
// unknown name, to make typo diagnostics actionable.
func nearest(family string, catalog map[string]Instrument) string {
	prefix := family
	if i := strings.IndexByte(prefix, '_'); i > 0 {
		prefix = prefix[:i]
	}
	var close []string
	for f := range catalog {
		if strings.HasPrefix(f, prefix) {
			close = append(close, f)
		}
	}
	sort.Strings(close)
	if len(close) > 3 {
		close = close[:3]
	}
	if len(close) == 0 {
		return "none with that prefix"
	}
	return strings.Join(close, ", ")
}
