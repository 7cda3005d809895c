// Command horselint type-checks package patterns with go/types and runs
// the repository's determinism and telemetry invariant analyzers
// (internal/analysis) over them, in the style of a go/analysis
// multichecker:
//
//	go run ./cmd/horselint ./...
//	go run ./cmd/horselint -json ./internal/vmm ./internal/core
//
// Analyzers:
//
//	wallclock  — no wall-clock time APIs in simulation packages
//	metricname — telemetry instrument names must be in the catalog
//	costcharge — virtual-clock charges must use named cost constants
//	lockcharge — no mutex held across virtual-clock charges or channel
//	             operations in trigger-path packages (flow-sensitive)
//	faulterr   — error results of fault-injectable calls must reach a
//	             check or a return on every path (flow-sensitive)
//	maporder   — no map-iteration-derived value in ordered output
//	             without an intervening sort (flow-sensitive)
//	hotpath    — //horselint:hotpath functions must be transitively
//	             allocation-free (interprocedural, summary-based)
//	allocpin   — every hotpath function needs a testing.AllocsPerRun
//	             pin in its package's tests
//	shardsafe  — no coordinator-owned state reachable from shard-phase
//	             code, and owned-field writes only in phase-annotated
//	             functions (interprocedural, summary-based)
//	phaseann   — hotpath and ownership annotations must be well-formed,
//	             unique, on production declarations, and (ownership)
//	             closed over the actual ShardGroup.Each handler set
//	sharedrand — no global math/rand functions or wall-clock seeds, and
//	             shard-phase code draws randomness only from per-node
//	             derived streams (interprocedural, summary-based)
//
// -only and -skip scope a run to a comma-separated subset of analyzers
// (mutually exclusive; unknown names are usage errors), so CI and local
// runs can isolate one invariant.
//
// A finding can be suppressed per line with
// //horselint:allow-<analyzer> <reason>; the reason is mandatory, and
// bare or misspelled directives are configuration errors: they are
// aggregated, printed with positions, and exit status 2 — like parse
// and type errors, which are likewise all reported in one run.
//
// -write-baseline FILE records the current findings (keyed by analyzer,
// file, and message, line numbers excluded so unrelated edits do not
// churn the file); -baseline FILE then suppresses exactly that many
// known findings per key, so new debt fails while legacy debt is paid
// down incrementally. -timing FILE writes a BENCH-style JSON report of
// the run's wall time, split into the load (parsing and type checking)
// and each analyzer, for CI trend tracking.
//
// -allows FILE gates suppression debt: the run fails if any analyzer's
// //horselint:allow-* directive count exceeds the count recorded in
// FILE, so adding an escape hatch requires a deliberate baseline update
// (-write-allows FILE regenerates it).
//
// Exit status: 0 clean, 1 findings, 2 usage, load, or directive errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/horse-faas/horse/internal/analysis/allocpin"
	"github.com/horse-faas/horse/internal/analysis/costcharge"
	"github.com/horse-faas/horse/internal/analysis/faulterr"
	"github.com/horse-faas/horse/internal/analysis/hotpath"
	"github.com/horse-faas/horse/internal/analysis/lint"
	"github.com/horse-faas/horse/internal/analysis/lockcharge"
	"github.com/horse-faas/horse/internal/analysis/maporder"
	"github.com/horse-faas/horse/internal/analysis/metricname"
	"github.com/horse-faas/horse/internal/analysis/phaseann"
	"github.com/horse-faas/horse/internal/analysis/shardsafe"
	"github.com/horse-faas/horse/internal/analysis/sharedrand"
	"github.com/horse-faas/horse/internal/analysis/simclock"
)

// finding is the JSON shape of one diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// baselineFile is the -baseline / -write-baseline JSON shape: counts of
// accepted findings per key. Keys omit line numbers so edits elsewhere
// in a file do not churn the baseline.
type baselineFile struct {
	Version  int            `json:"version"`
	Findings map[string]int `json:"findings"`
}

// timingReport is the -timing JSON shape, styled after the BENCH_*.json
// baselines at the repository root.
type timingReport struct {
	Description string `json:"description"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	Go          string `json:"go"`
	Budget      struct {
		MaxWallMS         int64 `json:"max_wall_ms"`
		MaxAnalyzerWallMS int64 `json:"max_analyzer_wall_ms"`
	} `json:"budget"`
	Results struct {
		Analyzers  int                `json:"analyzers"`
		Findings   int                `json:"findings"`
		WallMS     float64            `json:"wall_ms"`
		LoadMS     float64            `json:"load_ms"`
		AnalyzerMS map[string]float64 `json:"analyzer_ms"`
	} `json:"results"`
}

// timingBudgetMS is the wall-time ceiling recorded in -timing reports
// and enforced per run: type-checked analysis of this repository should
// stay well under it on any CI machine. analyzerBudgetMS bounds the
// load and any single analyzer (including the one that pays for the
// shared call graph and summary construction).
const (
	timingBudgetMS   = 30000
	analyzerBudgetMS = 15000
)

// allowsFile is the -allows / -write-allows JSON shape: the accepted
// number of reasoned //horselint:allow-* directives per analyzer.
type allowsFile struct {
	Version int            `json:"version"`
	Allows  map[string]int `json:"allows"`
}

func analyzers() []*lint.Analyzer {
	return []*lint.Analyzer{
		simclock.Default(),
		metricname.Default(),
		costcharge.Default(),
		lockcharge.Default(),
		faulterr.Default(),
		maporder.Default(),
		hotpath.Default(),
		allocpin.Default(),
		shardsafe.Default(),
		phaseann.Default(),
		sharedrand.Default(),
	}
}

// filterAnalyzers applies the -only / -skip selections to as, whose
// names known holds. Unknown names in either list are reported as usage
// errors.
func filterAnalyzers(as []*lint.Analyzer, known map[string]bool, only, skip string) ([]*lint.Analyzer, error) {
	parse := func(flagName, csv string) (map[string]bool, error) {
		if csv == "" {
			return nil, nil
		}
		names := map[string]bool{}
		for _, name := range strings.Split(csv, ",") {
			if name = strings.TrimSpace(name); name == "" {
				continue
			}
			if !known[name] {
				return nil, fmt.Errorf("%s: unknown analyzer %q", flagName, name)
			}
			names[name] = true
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("%s: no analyzer names given", flagName)
		}
		return names, nil
	}
	onlySet, err := parse("-only", only)
	if err != nil {
		return nil, err
	}
	skipSet, err := parse("-skip", skip)
	if err != nil {
		return nil, err
	}
	var kept []*lint.Analyzer
	for _, a := range as {
		if onlySet != nil && !onlySet[a.Name] {
			continue
		}
		if skipSet[a.Name] {
			continue
		}
		kept = append(kept, a)
	}
	return kept, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("horselint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	baselinePath := fs.String("baseline", "", "suppress the known findings recorded in this baseline `file`")
	writeBaseline := fs.String("write-baseline", "", "record current findings to this baseline `file` and exit 0")
	timingPath := fs.String("timing", "", "write a BENCH-style JSON wall-time report to this `file`")
	onlyList := fs.String("only", "", "run only these `analyzers` (comma-separated)")
	skipList := fs.String("skip", "", "skip these `analyzers` (comma-separated)")
	allowsPath := fs.String("allows", "", "fail if //horselint:allow-* counts exceed this baseline `file`")
	writeAllows := fs.String("write-allows", "", "record current //horselint:allow-* counts to this baseline `file` and exit 0")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: horselint [-json] [-only names | -skip names] [-baseline file | -write-baseline file] [-allows file | -write-allows file] [-timing file] [packages]\n\n")
		fmt.Fprintf(fs.Output(), "Runs the HORSE invariant analyzers over package patterns (default ./...).\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baselinePath != "" && *writeBaseline != "" {
		fmt.Fprintln(stderr, "horselint: -baseline and -write-baseline are mutually exclusive")
		return 2
	}
	if *onlyList != "" && *skipList != "" {
		fmt.Fprintln(stderr, "horselint: -only and -skip are mutually exclusive")
		return 2
	}
	if *allowsPath != "" && *writeAllows != "" {
		fmt.Fprintln(stderr, "horselint: -allows and -write-allows are mutually exclusive")
		return 2
	}
	patterns := fs.Args()

	// Directive validation and the allow-count gate always see the full
	// analyzer set: scoping a run with -only must not turn suppressions
	// for the other analyzers into unknown-name errors.
	all := analyzers()
	known := map[string]bool{}
	for _, a := range all {
		known[a.Name] = true
	}
	as, err := filterAnalyzers(all, known, *onlyList, *skipList)
	if err != nil {
		fmt.Fprintf(stderr, "horselint: %v\n", err)
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "horselint: %v\n", err)
		return 2
	}
	start := time.Now()
	fset := token.NewFileSet()
	pkgs, err := lint.Load(fset, cwd, patterns...)
	loaded := time.Since(start)
	if err != nil {
		if le, ok := err.(lint.LoadErrors); ok {
			for _, e := range le {
				fmt.Fprintf(stderr, "horselint: %v\n", e)
			}
			// A load stops after parsing if any file fails to parse, so
			// the errors are all of one kind.
			what := "file(s) failed to parse"
			var te types.Error
			if errors.As(le[0], &te) {
				what = "type error(s)"
			}
			fmt.Fprintf(stderr, "horselint: %d %s\n", len(le), what)
		} else {
			fmt.Fprintf(stderr, "horselint: %v\n", err)
		}
		return 2
	}

	// Malformed suppression directives are configuration errors, not
	// findings: aggregate every one with its position and exit 2, so a
	// broken escape hatch cannot be baselined away.
	if bad := lint.CheckDirectives(pkgs, known); len(bad) > 0 {
		for _, d := range bad {
			fmt.Fprintln(stderr, d)
		}
		fmt.Fprintf(stderr, "horselint: %d malformed directive(s)\n", len(bad))
		return 2
	}

	if *writeAllows != "" {
		al := allowsFile{Version: 1, Allows: lint.CountDirectives(pkgs)}
		total := 0
		for _, n := range al.Allows {
			total += n
		}
		if err := writeJSON(*writeAllows, al); err != nil {
			fmt.Fprintf(stderr, "horselint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "horselint: wrote allow-directive baseline of %d directive(s) to %s\n", total, *writeAllows)
		return 0
	}
	if *allowsPath != "" {
		grown, err := checkAllows(*allowsPath, lint.CountDirectives(pkgs))
		if err != nil {
			fmt.Fprintf(stderr, "horselint: %v\n", err)
			return 2
		}
		if len(grown) > 0 {
			for _, g := range grown {
				fmt.Fprintln(stderr, g)
			}
			fmt.Fprintf(stderr, "horselint: allow-directive count grew for %d analyzer(s); update %s deliberately if the new suppression is justified\n", len(grown), *allowsPath)
			return 1
		}
	}

	diags, timings, err := lint.RunTimed(fset, pkgs, as)
	if err != nil {
		fmt.Fprintf(stderr, "horselint: %v\n", err)
		return 2
	}
	lint.Sort(diags)
	elapsed := time.Since(start)

	if *timingPath != "" {
		if err := writeTiming(*timingPath, loaded, timings, len(diags), elapsed); err != nil {
			fmt.Fprintf(stderr, "horselint: %v\n", err)
			return 2
		}
		if over := overBudget(loaded, timings, elapsed); len(over) > 0 {
			for _, o := range over {
				fmt.Fprintln(stderr, "horselint: "+o)
			}
			return 2
		}
	}

	if *writeBaseline != "" {
		bl := baselineFile{Version: 1, Findings: map[string]int{}}
		for _, d := range diags {
			bl.Findings[baselineKey(cwd, d)]++
		}
		if err := writeJSON(*writeBaseline, bl); err != nil {
			fmt.Fprintf(stderr, "horselint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "horselint: wrote baseline of %d finding(s) to %s\n", len(diags), *writeBaseline)
		return 0
	}

	suppressed := 0
	if *baselinePath != "" {
		bl, err := readBaselineFile(*baselinePath)
		if err != nil {
			fmt.Fprintf(stderr, "horselint: %v\n", err)
			return 2
		}
		remaining := bl.Findings
		kept := diags[:0]
		for _, d := range diags {
			key := baselineKey(cwd, d)
			if remaining[key] > 0 {
				remaining[key]--
				suppressed++
				continue
			}
			kept = append(kept, d)
		}
		diags = kept
	}

	if *jsonOut {
		findings := make([]finding, 0, len(diags))
		for _, d := range diags {
			findings = append(findings, finding{
				File:     d.Position.Filename,
				Line:     d.Position.Line,
				Column:   d.Position.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "horselint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if suppressed > 0 {
		fmt.Fprintf(stderr, "horselint: %d baselined finding(s) suppressed\n", suppressed)
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "horselint: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		}
		return 1
	}
	return 0
}

// baselineKey identifies a finding across runs: analyzer, repo-relative
// slash path, and message.
func baselineKey(root string, d lint.Diagnostic) string {
	file := d.Position.Filename
	if rel, err := filepath.Rel(root, file); err == nil {
		file = rel
	}
	return d.Analyzer + "|" + filepath.ToSlash(file) + "|" + d.Message
}

// writeJSON writes v as indented JSON. encoding/json sorts map keys, so
// the file is byte-stable across runs.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readBaselineFile(path string) (baselineFile, error) {
	var bl baselineFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bl, err
	}
	if err := json.Unmarshal(data, &bl); err != nil {
		return bl, fmt.Errorf("baseline %s: %w", path, err)
	}
	if bl.Version != 1 {
		return bl, fmt.Errorf("baseline %s: unsupported version %d", path, bl.Version)
	}
	if bl.Findings == nil {
		bl.Findings = map[string]int{}
	}
	return bl, nil
}

func writeTiming(path string, loaded time.Duration, timings []lint.AnalyzerTiming, findings int, elapsed time.Duration) error {
	var r timingReport
	r.Description = "horselint wall time over the repository: load_ms is parsing plus go/types checking of every package (standard-library dependencies checked from source), analyzer_ms splits the rest per analyzer (interprocedural artifact construction bills to the first analyzer that needs it). Regenerate with: go run ./cmd/horselint -timing BENCH_lint.json ./..."
	r.GOOS = runtime.GOOS
	r.GOARCH = runtime.GOARCH
	r.Go = runtime.Version()
	r.Budget.MaxWallMS = timingBudgetMS
	r.Budget.MaxAnalyzerWallMS = analyzerBudgetMS
	r.Results.Analyzers = len(timings)
	r.Results.Findings = findings
	r.Results.WallMS = float64(elapsed.Microseconds()) / 1000
	r.Results.LoadMS = float64(loaded.Microseconds()) / 1000
	r.Results.AnalyzerMS = map[string]float64{}
	for _, t := range timings {
		r.Results.AnalyzerMS[t.Name] = float64(t.Wall.Microseconds()) / 1000
	}
	return writeJSON(path, r)
}

// overBudget lists human-readable violations of the wall-clock budgets.
func overBudget(loaded time.Duration, timings []lint.AnalyzerTiming, elapsed time.Duration) []string {
	var over []string
	if ms := elapsed.Milliseconds(); ms > timingBudgetMS {
		over = append(over, fmt.Sprintf("run took %dms, over the %dms budget", ms, timingBudgetMS))
	}
	if ms := loaded.Milliseconds(); ms > analyzerBudgetMS {
		over = append(over, fmt.Sprintf("load took %dms, over the %dms budget", ms, analyzerBudgetMS))
	}
	for _, t := range timings {
		if ms := t.Wall.Milliseconds(); ms > analyzerBudgetMS {
			over = append(over, fmt.Sprintf("analyzer %s took %dms, over the %dms per-analyzer budget", t.Name, ms, analyzerBudgetMS))
		}
	}
	return over
}

// checkAllows compares the current allow-directive counts against the
// recorded baseline and describes every analyzer whose count grew.
// Shrinking counts pass (paying down suppression debt never needs a
// baseline edit first).
func checkAllows(path string, counts map[string]int) ([]string, error) {
	var al allowsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &al); err != nil {
		return nil, fmt.Errorf("allows baseline %s: %w", path, err)
	}
	if al.Version != 1 {
		return nil, fmt.Errorf("allows baseline %s: unsupported version %d", path, al.Version)
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	var grown []string
	for _, name := range names {
		if counts[name] > al.Allows[name] {
			grown = append(grown, fmt.Sprintf("horselint: %d horselint:allow-%s directive(s) in tree, baseline accepts %d", counts[name], name, al.Allows[name]))
		}
	}
	return grown, nil
}
