// Command horselint type-checks package patterns with go/types and runs
// the repository's determinism and telemetry invariant analyzers
// (internal/analysis) over them, in the style of a go/analysis
// multichecker:
//
//	go run ./cmd/horselint ./...
//	go run ./cmd/horselint ./internal/vmm ./internal/core
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
// A finding can be suppressed per line with
// //horselint:allow-<analyzer> <reason>; the reason is mandatory, and
// bare or misspelled directives are configuration errors: they are
// aggregated, printed with positions, and exit status 2 — like parse
// and type errors, which are likewise all reported in one run.
//
// -allows FILE gates suppression debt: the run fails if any analyzer's
// //horselint:allow-* directive count exceeds the count recorded in
// FILE, so adding an escape hatch means editing FILE by hand, in the
// same change. -timing FILE writes a BENCH-style JSON report of the
// run's wall time, split into the load (parsing and type checking) and
// each analyzer, for CI trend tracking. CI runs:
//
//	go run ./cmd/horselint -allows LINT_ALLOWS.json -timing BENCH_lint.json ./...
//
// Exit status: 0 clean, 1 findings or a grown allow count, 2 usage,
// load, or directive errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/types"
	"io"
	"os"
	"runtime"
	"sort"
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

// allowsFile is the -allows JSON shape: the accepted number of
// reasoned //horselint:allow-* directives per analyzer.
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

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("horselint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	timingPath := fs.String("timing", "", "write a BENCH-style JSON wall-time report to this `file`")
	allowsPath := fs.String("allows", "", "fail if //horselint:allow-* counts exceed this baseline `file`")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: horselint [-allows file] [-timing file] [packages]\n\n")
		fmt.Fprintf(fs.Output(), "Runs the HORSE invariant analyzers over package patterns (default ./...).\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	as := analyzers()
	known := map[string]bool{}
	for _, a := range as {
		known[a.Name] = true
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "horselint: %v\n", err)
		return 2
	}
	start := time.Now()
	pkgs, err := lint.Load(cwd, fs.Args()...)
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
	// findings: aggregate every one with its position and exit 2.
	if bad := lint.CheckDirectives(pkgs, known); len(bad) > 0 {
		for _, d := range bad {
			fmt.Fprintln(stderr, d)
		}
		fmt.Fprintf(stderr, "horselint: %d malformed directive(s)\n", len(bad))
		return 2
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

	diags, timings, err := lint.RunTimed(pkgs, as)
	if err != nil {
		fmt.Fprintf(stderr, "horselint: %v\n", err)
		return 2
	}
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

	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "horselint: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
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

func writeTiming(path string, loaded time.Duration, timings []lint.AnalyzerTiming, findings int, elapsed time.Duration) error {
	var r timingReport
	r.Description = "horselint wall time over the repository: load_ms is parsing plus go/types checking of every package (the standard library is type-checked from source once per process, repository packages on every load), analyzer_ms splits the rest per analyzer (interprocedural artifact construction bills to the first analyzer that needs it). Regenerate with: go run ./cmd/horselint -allows LINT_ALLOWS.json -timing BENCH_lint.json ./..."
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
