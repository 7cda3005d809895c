package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/horse-faas/horse/internal/analysis/callgraph"
	"github.com/horse-faas/horse/internal/analysis/lint"
)

// chdir switches the working directory for one test; t.Cleanup restores
// it (run() resolves patterns against the process working directory).
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

func write(t *testing.T, path, src string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// violating is a package with exactly one faulterr finding: a monitored
// call whose error result is discarded.
const violating = `package p

type hv struct{}

func (hv) DestroySandbox() error { return nil }

func f(h hv) {
	h.DestroySandbox()
}
`

// mixed is a module-less fixture with findings from several analyzers:
// a discarded fault-injectable error (faulterr), an unannotated write to
// a coordinator-owned field (shardsafe), and, in a package under
// internal/, a wall-clock read (wallclock) and a global math/rand draw
// (sharedrand).
var mixed = map[string]string{
	"p.go": violating,
	"shard.go": `package p

type sim struct {
	n int //horselint:coordinator
}

func bump(s *sim) {
	s.n++
}
`,
	filepath.Join("internal", "sim", "sim.go"): `package sim

import (
	"math/rand"
	"time"
)

func Stamp() time.Time { return time.Now() }

func Draw() int { return rand.Intn(6) }
`,
}

// TestDeterministicJSON pins the byte-identical output guarantee the
// dataflow worklist and replay ordering exist for: two full runs over a
// fixture with findings from several analyzers print the same bytes.
func TestDeterministicJSON(t *testing.T) {
	dir := t.TempDir()
	for name, src := range mixed {
		write(t, filepath.Join(dir, name), src)
	}
	chdir(t, dir)
	var out1, out2, errBuf bytes.Buffer
	code1 := run(nil, &out1, &errBuf)
	code2 := run(nil, &out2, &errBuf)
	if code1 != 1 || code2 != 1 {
		t.Fatalf("exit codes = %d, %d, want 1, 1\nstderr: %s", code1, code2, errBuf.String())
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Errorf("output is not byte-identical across runs:\nrun1:\n%s\nrun2:\n%s", out1.String(), out2.String())
	}
	for _, want := range []string{
		"faulterr: error result of DestroySandbox is discarded",
		"shardsafe: write to coordinator-owned field sim.n outside phase-annotated code",
		"wallclock: wall-clock time.Now in simulation package internal/sim",
		"sharedrand: global rand.Intn draws from the shared process-wide source",
	} {
		if !strings.Contains(out1.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out1.String())
		}
	}
}

// TestRepoClean asserts the repository itself carries no findings and
// no suppression beyond LINT_ALLOWS.json, exactly as CI runs it.
func TestRepoClean(t *testing.T) {
	chdir(t, filepath.Join("..", ".."))
	var out, errBuf bytes.Buffer
	if code := run([]string{"-allows", "LINT_ALLOWS.json", "./..."}, &out, &errBuf); code != 0 {
		t.Errorf("horselint over the repository = exit %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errBuf.String())
	}
}

// TestRepoDeterminism loads the repository twice and requires identical
// call-graph dumps: the summary fixpoint every interprocedural analyzer
// reads depends on it. The second load re-checks every repository
// package; the standard library is checked once per process (see
// internal/analysis/lint for the uncached standard-library check).
func TestRepoDeterminism(t *testing.T) {
	build := func() string {
		pkgs, err := lint.Load(filepath.Join("..", ".."), "./internal/...")
		if err != nil {
			t.Fatalf("load repo: %v", err)
		}
		return callgraph.Build(pkgs).Dump()
	}
	a, b := build(), build()
	if a != b {
		t.Error("repo call-graph dump is not deterministic")
	}
	if !strings.Contains(a, "github.com/horse-faas/horse/internal/cluster.(Router).Pick") {
		t.Error("expected Router.Pick node in repo graph")
	}
}

func TestFindingsExitOne(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "p.go"), violating)
	chdir(t, dir)
	var out, errBuf bytes.Buffer
	if code := run(nil, &out, &errBuf); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "error result of DestroySandbox is discarded") {
		t.Errorf("stdout missing the finding:\n%s", out.String())
	}
}

// TestMalformedDirectivesExitTwo pins the configuration-error path:
// every malformed directive is reported with its position, and the exit
// status is 2 — not a baselinable finding.
func TestMalformedDirectivesExitTwo(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "p.go"), `package p

//horselint:allow-faulterr
var a int

//horselint:allow-nonesuch some reason
var b int
`)
	chdir(t, dir)
	var out, errBuf bytes.Buffer
	if code := run(nil, &out, &errBuf); code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr: %s", code, errBuf.String())
	}
	msg := errBuf.String()
	if !strings.Contains(msg, "needs a reason") || !strings.Contains(msg, `unknown analyzer "nonesuch"`) {
		t.Errorf("stderr should aggregate both malformed directives:\n%s", msg)
	}
	if !strings.Contains(msg, "p.go:3:") || !strings.Contains(msg, "p.go:6:") {
		t.Errorf("stderr should carry directive positions:\n%s", msg)
	}
	if !strings.Contains(msg, "2 malformed directive(s)") {
		t.Errorf("stderr should count malformed directives:\n%s", msg)
	}
}

// TestParseErrorsAggregate pins loader aggregation: two broken files are
// both reported in one run.
func TestParseErrorsAggregate(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "a.go"), "package p\nfunc {\n")
	write(t, filepath.Join(dir, "sub", "b.go"), "package q\nvar = 3\n")
	chdir(t, dir)
	var out, errBuf bytes.Buffer
	if code := run(nil, &out, &errBuf); code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr: %s", code, errBuf.String())
	}
	msg := errBuf.String()
	if !strings.Contains(msg, "a.go") || !strings.Contains(msg, "b.go") {
		t.Errorf("stderr should report both broken files:\n%s", msg)
	}
	if !strings.Contains(msg, "2 file(s) failed to parse") {
		t.Errorf("stderr should count parse failures:\n%s", msg)
	}
}

// TestTypeErrorsExitTwo pins that a package that does not type-check
// fails the run like a parse error, with the error's position.
func TestTypeErrorsExitTwo(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "p.go"), "package p\n\nfunc f() int { return \"x\" }\n")
	chdir(t, dir)
	var out, errBuf bytes.Buffer
	if code := run(nil, &out, &errBuf); code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr: %s", code, errBuf.String())
	}
	if msg := errBuf.String(); !strings.Contains(msg, "p.go:3:23: ") || !strings.Contains(msg, "1 type error(s)") {
		t.Errorf("stderr should carry the type error's position and count:\n%s", msg)
	}
}

func TestTimingReport(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "p.go"), "package p\n\nfunc ok() {}\n")
	chdir(t, dir)
	var out, errBuf bytes.Buffer
	if code := run([]string{"-timing", "timing.json"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s", code, errBuf.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "timing.json"))
	if err != nil {
		t.Fatal(err)
	}
	var r timingReport
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("timing report is not valid JSON: %v", err)
	}
	if r.Results.Analyzers != len(analyzers()) {
		t.Errorf("timing results = %+v, want %d analyzers", r.Results, len(analyzers()))
	}
	if r.Results.WallMS < 0 || r.Budget.MaxWallMS != timingBudgetMS {
		t.Errorf("timing wall/budget = %+v", r)
	}
	if r.Budget.MaxAnalyzerWallMS != analyzerBudgetMS {
		t.Errorf("per-analyzer budget = %d, want %d", r.Budget.MaxAnalyzerWallMS, analyzerBudgetMS)
	}
	if len(r.Results.AnalyzerMS) != len(analyzers()) {
		t.Errorf("analyzer_ms has %d entries, want one per analyzer (%d)", len(r.Results.AnalyzerMS), len(analyzers()))
	}
	for _, a := range analyzers() {
		if ms, ok := r.Results.AnalyzerMS[a.Name]; !ok || ms < 0 {
			t.Errorf("analyzer_ms[%q] = %v, %v; want a non-negative entry", a.Name, ms, ok)
		}
	}
}

// writeAllows writes a hand-edited allows file, the way
// LINT_ALLOWS.json is kept.
func writeAllows(t *testing.T, path, analyzer string, n int) {
	t.Helper()
	write(t, path, fmt.Sprintf("{\n  \"version\": 1,\n  \"allows\": {\n    %q: %d\n  }\n}\n", analyzer, n))
}

// TestAllowsGateSharedrand pins that a reasoned allow-sharedrand
// directive both suppresses the finding and is counted by the
// suppression-debt gate under its analyzer name.
func TestAllowsGateSharedrand(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "p.go"), `package p

type Rand struct{}

//horselint:shardphase
func (r *Rand) Intn(n int) int { return 0 }

type world struct {
	rng *Rand //horselint:coordinator
}

//horselint:shardphase
func draw(w *world) int {
	return w.rng.Intn(3) //horselint:allow-sharedrand stream is keyed before the first barrier
}
`)
	chdir(t, dir)

	writeAllows(t, "allows.json", "sharedrand", 1)
	var out, errBuf bytes.Buffer
	if code := run([]string{"-allows", "allows.json"}, &out, &errBuf); code != 0 {
		t.Errorf("-allows at recorded count exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errBuf.String())
	}

	writeAllows(t, "allows.json", "sharedrand", 0)
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-allows", "allows.json"}, &out, &errBuf); code != 1 {
		t.Fatalf("-allows below the tree's count exit = %d, want 1\nstderr: %s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "1 horselint:allow-sharedrand directive(s) in tree, baseline accepts 0") {
		t.Errorf("stderr should count the directive under sharedrand:\n%s", errBuf.String())
	}
}

// TestAllowsGate pins the suppression-debt gate: recorded counts pass,
// growth fails with the analyzer named, and paying debt down passes
// without a baseline edit.
func TestAllowsGate(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "p.go"), `package p

type hv struct{}

func (hv) DestroySandbox() error { return nil }

func f(h hv) {
	h.DestroySandbox() //horselint:allow-faulterr teardown is best-effort here
}
`)
	chdir(t, dir)
	writeAllows(t, "allows.json", "faulterr", 1)

	var out, errBuf bytes.Buffer
	if code := run([]string{"-allows", "allows.json"}, &out, &errBuf); code != 0 {
		t.Fatalf("-allows at recorded count exit = %d, want 0\nstderr: %s", code, errBuf.String())
	}

	// A second suppression without a baseline update fails the gate.
	write(t, filepath.Join(dir, "q.go"), `package p

func g(h hv) {
	h.DestroySandbox() //horselint:allow-faulterr teardown is best-effort here too
}
`)
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-allows", "allows.json"}, &out, &errBuf); code != 1 {
		t.Fatalf("-allows with grown count exit = %d, want 1\nstderr: %s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "allow-faulterr") || !strings.Contains(errBuf.String(), "baseline accepts 1") {
		t.Errorf("stderr should name the grown analyzer and the accepted count:\n%s", errBuf.String())
	}

	// Paying debt down passes without touching the baseline.
	write(t, filepath.Join(dir, "p.go"), `package p

type hv struct{}

func (hv) DestroySandbox() error { return nil }
`)
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-allows", "allows.json"}, &out, &errBuf); code != 0 {
		t.Errorf("-allows after paying debt down exit = %d, want 0\nstderr: %s", code, errBuf.String())
	}
}
