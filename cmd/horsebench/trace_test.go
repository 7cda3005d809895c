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
// trace: valid trace-event JSON whose resume spans carry per-step events
// for all four policies, with HORSE's resume duration flat in the vCPU
// count while vanilla's grows linearly.
func TestTraceFig3PerfettoFormat(t *testing.T) {
	doc, prom, _ := runTrace(t, "-experiment", "fig3")
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	type resume struct {
		vcpus    int
		dur      float64
		ts       float64
		tid      int
		hasSteps bool
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
		// Each run sits on its own track; a resume's steps are the step
		// events inside its window on that track.
		for i := range runs {
			for _, st := range steps {
				if st.Tid == runs[i].tid && st.Ts >= runs[i].ts && st.Ts <= runs[i].ts+runs[i].dur {
					runs[i].hasSteps = true
					break
				}
			}
			if !runs[i].hasSteps {
				t.Fatalf("policy %q resume at %d vCPUs has no step events", policy, runs[i].vcpus)
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

// TestTraceReplayNestsInvocations checks the replay experiment's span
// hierarchy end to end: invocation spans with exec steps, resume spans
// with fast-path steps, and the trigger metrics.
func TestTraceReplayNestsInvocations(t *testing.T) {
	doc, prom, out := runTrace(t, "-experiment", "replay", "-n", "25")
	counts := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			counts[ev.Name]++
		}
	}
	for name, want := range map[string]int{
		"replay": 1, "invocation": 25, "resume": 25, "exec": 25, "fastpath": 25,
	} {
		if counts[name] != want {
			t.Fatalf("%s events = %d, want %d (all: %v)", name, counts[name], want, counts)
		}
	}
	if !strings.Contains(prom, `faas_triggers_total{mode="horse"} 25`) {
		t.Fatalf("exposition:\n%s", prom)
	}
	if !strings.Contains(out, "spans recorded") {
		t.Fatalf("output: %s", out)
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
		{"-span-buffer", "-1"},
		{"-span-buffer", "0"},
		{"-experiment", "replay", "-n", "0"},
	} {
		var buf bytes.Buffer
		if err := run(append([]string{"trace", "-out", filepath.Join(t.TempDir(), "x")}, args...), &buf); err == nil {
			t.Errorf("trace args %v accepted", args)
		}
	}
}
