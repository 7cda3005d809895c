package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

type traceDoc struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

func runTrace(t *testing.T, args ...string) (traceDoc, string, string) {
	t.Helper()
	dir := t.TempDir()
	prefix := filepath.Join(dir, "horse")
	var buf bytes.Buffer
	if err := run(append([]string{"trace", "-out", prefix}, args...), &buf); err != nil {
		t.Fatalf("trace: %v\n%s", err, buf.String())
	}
	raw, err := os.ReadFile(prefix + ".trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	prom, err := os.ReadFile(prefix + ".prom")
	if err != nil {
		t.Fatal(err)
	}
	return doc, string(prom), buf.String()
}

// TestTraceFig3PerfettoFormat checks the acceptance shape of the fig3
// trace: valid trace-event JSON whose resume slices are tiled by their
// step slices for all four policies, with HORSE's resume duration flat
// in the vCPU count while vanilla's grows linearly.
func TestTraceFig3PerfettoFormat(t *testing.T) {
	doc, prom, _ := runTrace(t, "-experiment", "fig3")
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	type resume struct {
		vcpus int
		dur   float64
		ts    float64
		tid   int
	}
	byPolicy := map[string][]resume{}
	var steps []traceEvent
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M":
			continue
		case ev.Ph != "X":
			t.Fatalf("unexpected phase %q: %+v", ev.Ph, ev)
		case ev.Name == "resume":
			v, err := strconv.Atoi(ev.Args["vcpus"])
			if err != nil {
				t.Fatalf("resume vcpus arg: %v (%+v)", err, ev)
			}
			policy := ev.Args["policy"]
			byPolicy[policy] = append(byPolicy[policy], resume{vcpus: v, dur: ev.Dur, ts: ev.Ts, tid: ev.Tid})
		case ev.Cat == "step":
			steps = append(steps, ev)
		}
	}

	for _, policy := range []string{"vanil", "coal", "ppsm", "horse"} {
		runs := byPolicy[policy]
		if len(runs) == 0 {
			t.Fatalf("no resume spans for policy %q", policy)
		}
		// Each run sits on its own track; a resume's steps lie inside
		// its window on that track, one after another, and tile it.
		for _, run := range runs {
			n, at := 0, run.ts
			for _, st := range steps {
				if st.Tid != run.tid || st.Args["span"] != "resume" {
					continue
				}
				if diff := st.Ts - at; diff < -1e-9 || diff > 1e-9 {
					t.Fatalf("policy %q resume at %d vCPUs: step %s starts at %v µs, want %v", policy, run.vcpus, st.Name, st.Ts, at)
				}
				n++
				at += st.Dur
			}
			if diff := at - (run.ts + run.dur); n == 0 || diff < -1e-9 || diff > 1e-9 {
				t.Fatalf("policy %q resume at %d vCPUs: %d steps end at %v µs, resume ends at %v", policy, run.vcpus, n, at, run.ts+run.dur)
			}
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].vcpus < runs[j].vcpus })
		byPolicy[policy] = runs
	}

	// HORSE is O(1): every sweep point resumes in the same time.
	horse := byPolicy["horse"]
	for _, r := range horse[1:] {
		if r.dur != horse[0].dur {
			t.Fatalf("horse resume not constant: %v µs at %d vCPUs vs %v µs at %d",
				r.dur, r.vcpus, horse[0].dur, horse[0].vcpus)
		}
	}
	// Vanilla is linear: duration strictly grows with the vCPU count, and
	// the per-vCPU slope is stable across the sweep (within one bucket of
	// float noise).
	vanil := byPolicy["vanil"]
	for i := 1; i < len(vanil); i++ {
		if vanil[i].dur <= vanil[i-1].dur {
			t.Fatalf("vanilla resume not increasing: %v µs at %d vCPUs after %v µs at %d",
				vanil[i].dur, vanil[i].vcpus, vanil[i-1].dur, vanil[i-1].vcpus)
		}
	}
	first, last := vanil[0], vanil[len(vanil)-1]
	slope := (last.dur - first.dur) / float64(last.vcpus-first.vcpus)
	for i := 1; i < len(vanil); i++ {
		got := (vanil[i].dur - vanil[i-1].dur) / float64(vanil[i].vcpus-vanil[i-1].vcpus)
		if diff := got - slope; diff < -0.001 || diff > 0.001 {
			t.Fatalf("vanilla slope not linear: %v µs/vCPU between %d and %d, overall %v",
				got, vanil[i-1].vcpus, vanil[i].vcpus, slope)
		}
	}

	for _, want := range []string{
		"# TYPE vmm_resumes_total counter",
		`vmm_resumes_total{policy="horse"}`,
		"# TYPE vmm_resume_ns histogram",
		`vmm_resume_ns_bucket{policy="vanil",le="+Inf"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("exposition missing %q:\n%s", want, prom)
		}
	}
}

// TestTraceReplayNestsInvocations checks the replay experiment's trigger
// traces end to end: one track per trigger, each trigger slice nesting
// its resume and invoke stages, and the trigger metrics.
func TestTraceReplayNestsInvocations(t *testing.T) {
	doc, prom, out := runTrace(t, "-experiment", "replay", "-n", "25")
	tracks := map[int]bool{}
	type window struct{ ts, end float64 }
	roots := map[int]window{}
	stages := map[int]map[string]int{}
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			tracks[ev.Tid] = true
		case ev.Ph == "X" && ev.Cat == "trigger":
			roots[ev.Tid] = window{ev.Ts, ev.Ts + ev.Dur}
		case ev.Ph == "X":
			root, ok := roots[ev.Tid]
			if !ok || ev.Ts < root.ts || (ev.Cat == "serving" && ev.Ts+ev.Dur > root.end+1e-9) {
				t.Fatalf("stage %s on track %d lies outside its trigger %+v", ev.Name, ev.Tid, root)
			}
			if stages[ev.Tid] == nil {
				stages[ev.Tid] = map[string]int{}
			}
			stages[ev.Tid][ev.Name]++
		}
	}
	if len(tracks) != 25 || len(roots) != 25 {
		t.Fatalf("tracks = %d, trigger slices = %d, want 25 each", len(tracks), len(roots))
	}
	for tid := range roots {
		if stages[tid]["resume"] != 1 || stages[tid]["invoke"] != 1 {
			t.Fatalf("track %d stages = %v, want one resume and one invoke", tid, stages[tid])
		}
	}
	if !strings.Contains(prom, `faas_triggers_total{mode="horse"} 25`) {
		t.Fatalf("exposition:\n%s", prom)
	}
	if !strings.Contains(out, "25 trigger traces recorded") {
		t.Fatalf("output: %s", out)
	}
}

// TestTraceIsDeterministic pins that the trace command's files depend
// on its arguments alone: two runs with the same arguments write the
// same bytes, so no map order or wall clock leaks into them.
func TestTraceIsDeterministic(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "fig3"},
		{"-experiment", "replay", "-n", "25", "-faults", "resume:rate=0.1"},
	} {
		var files [2]map[string][]byte
		for i := range files {
			prefix := filepath.Join(t.TempDir(), "horse")
			var buf bytes.Buffer
			if err := run(append([]string{"trace", "-out", prefix}, args...), &buf); err != nil {
				t.Fatalf("trace %v: %v\n%s", args, err, buf.String())
			}
			files[i] = map[string][]byte{}
			for _, ext := range []string{".trace.json", ".metrics.json", ".prom"} {
				raw, err := os.ReadFile(prefix + ext)
				if err != nil {
					t.Fatal(err)
				}
				files[i][ext] = raw
			}
		}
		for ext, first := range files[0] {
			if !bytes.Equal(first, files[1][ext]) {
				t.Errorf("trace %v: %s differs between two runs", args, ext)
			}
		}
	}
}

func TestTraceMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run([]string{"trace", "-experiment", "fig2",
		"-out", filepath.Join(dir, "horse"), "-metrics-addr", "127.0.0.1:0"}, &buf)
	if err != nil {
		t.Fatalf("trace: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "serving metrics on http://127.0.0.1:") {
		t.Fatalf("no metrics endpoint line:\n%s", buf.String())
	}
}

func TestTraceRejectsUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"trace", "-experiment", "nope"}, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTraceBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "replay", "-n", "0"},
	} {
		var buf bytes.Buffer
		if err := run(append([]string{"trace", "-out", filepath.Join(t.TempDir(), "x")}, args...), &buf); err == nil {
			t.Errorf("trace args %v accepted", args)
		}
	}
}
