package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestDeterministicJSON pins the byte-identical -json guarantee the
// dataflow worklist and replay ordering exist for: two full runs over
// the repository must produce exactly the same bytes.
func TestDeterministicJSON(t *testing.T) {
	chdir(t, filepath.Join("..", ".."))
	var out1, out2, errBuf bytes.Buffer
	code1 := run([]string{"-json", "./..."}, &out1, &errBuf)
	code2 := run([]string{"-json", "./..."}, &out2, &errBuf)
	if code1 != code2 {
		t.Fatalf("exit codes differ: %d vs %d\nstderr: %s", code1, code2, errBuf.String())
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Errorf("-json output is not byte-identical across runs:\nrun1:\n%s\nrun2:\n%s", out1.String(), out2.String())
	}
}

// TestRepoClean asserts the repository itself carries no findings and
// no baseline debt: the empty-baseline acceptance gate.
func TestRepoClean(t *testing.T) {
	chdir(t, filepath.Join("..", ".."))
	var out, errBuf bytes.Buffer
	if code := run([]string{"./..."}, &out, &errBuf); code != 0 {
		t.Errorf("horselint over the repository = exit %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errBuf.String())
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

func TestBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "p.go"), violating)
	chdir(t, dir)

	var out, errBuf bytes.Buffer
	if code := run([]string{"-write-baseline", "bl.json"}, &out, &errBuf); code != 0 {
		t.Fatalf("-write-baseline exit = %d, want 0\nstderr: %s", code, errBuf.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "bl.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bl baselineFile
	if err := json.Unmarshal(data, &bl); err != nil {
		t.Fatalf("baseline is not valid JSON: %v", err)
	}
	if bl.Version != 1 || len(bl.Findings) != 1 {
		t.Fatalf("baseline = %+v, want version 1 with 1 finding key", bl)
	}
	for key, n := range bl.Findings {
		if !strings.HasPrefix(key, "faulterr|p.go|") || n != 1 {
			t.Errorf("baseline key = %q (count %d), want faulterr|p.go|… with count 1", key, n)
		}
	}

	// The baselined finding is suppressed; the run is clean.
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-baseline", "bl.json"}, &out, &errBuf); code != 0 {
		t.Fatalf("-baseline exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "1 baselined finding(s) suppressed") {
		t.Errorf("stderr missing suppression note: %s", errBuf.String())
	}

	// A new finding beyond the baselined count still fails.
	write(t, filepath.Join(dir, "q.go"), `package p

func g(h hv) {
	h.DestroySandbox()
}
`)
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-baseline", "bl.json"}, &out, &errBuf); code != 1 {
		t.Fatalf("-baseline with new finding exit = %d, want 1\nstderr: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "q.go") || strings.Contains(out.String(), "p.go:") {
		t.Errorf("only the new q.go finding should be reported:\n%s", out.String())
	}
}

func TestBaselineFlagsExclusive(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-baseline", "a", "-write-baseline", "b"}, &out, &errBuf); code != 2 {
		t.Errorf("exit = %d, want 2", code)
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

// TestOnlySkipFilter pins the analyzer-scoping flags: -only runs just
// the named analyzers, -skip runs everything else, unknown names and
// combining the two are usage errors.
func TestOnlySkipFilter(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "p.go"), violating)
	chdir(t, dir)

	var out, errBuf bytes.Buffer
	if code := run([]string{"-only", "faulterr"}, &out, &errBuf); code != 1 {
		t.Fatalf("-only faulterr exit = %d, want 1\nstderr: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "error result of DestroySandbox is discarded") {
		t.Errorf("-only faulterr should keep the faulterr finding:\n%s", out.String())
	}

	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-only", "wallclock,sharedrand"}, &out, &errBuf); code != 0 {
		t.Errorf("-only wallclock,sharedrand exit = %d, want 0 (faulterr not run)\nstdout: %s", code, out.String())
	}

	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-skip", "faulterr"}, &out, &errBuf); code != 0 {
		t.Errorf("-skip faulterr exit = %d, want 0\nstdout: %s", code, out.String())
	}

	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-only", "nonesuch"}, &out, &errBuf); code != 2 {
		t.Errorf("-only nonesuch exit = %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), `unknown analyzer "nonesuch"`) {
		t.Errorf("stderr should name the unknown analyzer: %s", errBuf.String())
	}

	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-only", "faulterr", "-skip", "wallclock"}, &out, &errBuf); code != 2 {
		t.Errorf("-only with -skip exit = %d, want 2", code)
	}
}

// TestOnlyKeepsDirectivesKnown pins that scoping a run does not turn
// suppression directives for the unselected analyzers into
// unknown-analyzer configuration errors.
func TestOnlyKeepsDirectivesKnown(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "p.go"), `package p

type hv struct{}

func (hv) DestroySandbox() error { return nil }

func f(h hv) {
	h.DestroySandbox() //horselint:allow-faulterr teardown is best-effort here
}
`)
	chdir(t, dir)
	var out, errBuf bytes.Buffer
	if code := run([]string{"-only", "wallclock"}, &out, &errBuf); code != 0 {
		t.Errorf("-only wallclock with a faulterr directive exit = %d, want 0\nstderr: %s", code, errBuf.String())
	}
}

// TestOnlyOwnershipAnalyzers pins that the three ownership analyzers
// are addressable by name from -only/-skip like any other analyzer.
func TestOnlyOwnershipAnalyzers(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "p.go"), `package p

type sim struct {
	n int //horselint:coordinator
}

func bump(s *sim) {
	s.n++
}
`)
	chdir(t, dir)

	var out, errBuf bytes.Buffer
	if code := run([]string{"-only", "shardsafe"}, &out, &errBuf); code != 1 {
		t.Fatalf("-only shardsafe exit = %d, want 1\nstderr: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "outside phase-annotated code") {
		t.Errorf("-only shardsafe should keep the unannotated-write finding:\n%s", out.String())
	}

	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-only", "phaseann,sharedrand"}, &out, &errBuf); code != 0 {
		t.Errorf("-only phaseann,sharedrand exit = %d, want 0 (shardsafe not run)\nstdout: %s", code, out.String())
	}

	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-skip", "shardsafe"}, &out, &errBuf); code != 0 {
		t.Errorf("-skip shardsafe exit = %d, want 0\nstdout: %s", code, out.String())
	}
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

	var out, errBuf bytes.Buffer
	if code := run([]string{"-write-allows", "allows.json"}, &out, &errBuf); code != 0 {
		t.Fatalf("-write-allows exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errBuf.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "allows.json"))
	if err != nil {
		t.Fatal(err)
	}
	var al allowsFile
	if err := json.Unmarshal(data, &al); err != nil {
		t.Fatalf("allows baseline is not valid JSON: %v", err)
	}
	if al.Allows["sharedrand"] != 1 {
		t.Fatalf("allows baseline = %+v, want sharedrand count 1", al)
	}

	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-allows", "allows.json"}, &out, &errBuf); code != 0 {
		t.Errorf("-allows at recorded count exit = %d, want 0\nstderr: %s", code, errBuf.String())
	}
}

// TestAllowsGate pins the suppression-debt gate: recorded counts pass,
// growth fails with the analyzer named, and paying debt down passes
// without a baseline edit.
func TestAllowsGate(t *testing.T) {
	dir := t.TempDir()
	suppressed := `package p

type hv struct{}

func (hv) DestroySandbox() error { return nil }

func f(h hv) {
	h.DestroySandbox() //horselint:allow-faulterr teardown is best-effort here
}
`
	write(t, filepath.Join(dir, "p.go"), suppressed)
	chdir(t, dir)

	var out, errBuf bytes.Buffer
	if code := run([]string{"-write-allows", "allows.json"}, &out, &errBuf); code != 0 {
		t.Fatalf("-write-allows exit = %d, want 0\nstderr: %s", code, errBuf.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "allows.json"))
	if err != nil {
		t.Fatal(err)
	}
	var al allowsFile
	if err := json.Unmarshal(data, &al); err != nil {
		t.Fatalf("allows baseline is not valid JSON: %v", err)
	}
	if al.Version != 1 || al.Allows["faulterr"] != 1 {
		t.Fatalf("allows baseline = %+v, want version 1 with faulterr count 1", al)
	}

	out.Reset()
	errBuf.Reset()
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
	if err := os.Remove(filepath.Join(dir, "p.go")); err != nil {
		t.Fatal(err)
	}
	write(t, filepath.Join(dir, "p.go"), `package p

type hv struct{}

func (hv) DestroySandbox() error { return nil }
`)
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-allows", "allows.json"}, &out, &errBuf); code != 0 {
		t.Errorf("-allows after paying debt down exit = %d, want 0\nstderr: %s", code, errBuf.String())
	}

	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-allows", "a", "-write-allows", "b"}, &out, &errBuf); code != 2 {
		t.Errorf("-allows with -write-allows exit = %d, want 2", code)
	}
}
