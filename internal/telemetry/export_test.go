package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"github.com/horse-faas/horse/internal/simtime"
)

func sampleSpans() []Span {
	return []Span{{
		Track: "horse vcpus=36",
		Name:  "resume",
		Cat:   "horse",
		Args:  map[string]string{"policy": "horse", "vcpus": "36"},
		Steps: []simtime.StopwatchResult{{Label: "fastpath", Cost: 34}, {Label: "psm-merge", Cost: 110}},
	}}
}

func TestWritePerfettoFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, sampleSpans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		DisplayUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayUnit)
	}
	// 1 metadata + 1 span + 2 step events.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events:\n%s", len(doc.TraceEvents), buf.String())
	}
	var sawSpan, sawStep bool
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "M":
			continue
		case "X":
		default:
			t.Fatalf("unexpected phase %q in %v", ph, ev)
		}
		for _, key := range []string{"name", "ts", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing %q: %v", key, ev)
			}
		}
		if ev["name"] == "resume" {
			sawSpan = true
			args := ev["args"].(map[string]any)
			if args["policy"] != "horse" || args["vcpus"] != "36" {
				t.Fatalf("span args = %v", args)
			}
			if dur := ev["dur"].(float64); dur != 0.144 { // 144ns in µs
				t.Fatalf("span dur = %v µs", dur)
			}
		}
		if ev["name"] == "psm-merge" {
			sawStep = true
			if ts := ev["ts"].(float64); ts != 0.034 {
				t.Fatalf("step ts = %v µs", ts)
			}
		}
	}
	if !sawSpan || !sawStep {
		t.Fatalf("span=%v step=%v", sawSpan, sawStep)
	}
}

// expositionLine matches one Prometheus 0.0.4 sample line.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?$`)

func checkExposition(t *testing.T, text string) {
	t.Helper()
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("bad TYPE line %q", line)
			}
			typed[parts[2]] = true
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("unparseable exposition line %q", line)
		}
		fam := Family(strings.Fields(line)[0])
		fam = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(fam, "_bucket"), "_sum"), "_count")
		if !typed[fam] {
			t.Fatalf("sample %q precedes its TYPE line (family %q)", line, fam)
		}
	}
}

func TestWritePrometheusParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("faas_triggers_total", "mode", "horse").Add(5)
	r.Counter("faas_warm_pool_hits_total").Add(4)
	r.Gauge("faas_warm_pool_size").Set(2)
	r.Histogram("vmm_resume_ns", "policy", "horse").Observe(150)
	r.Histogram("vmm_resume_ns", "policy", "vanil").Observe(1150)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	checkExposition(t, text)
	for _, want := range []string{
		`faas_triggers_total{mode="horse"} 5`,
		`faas_warm_pool_size 2`,
		"# TYPE vmm_resume_ns histogram",
		`vmm_resume_ns_bucket{policy="horse",le="200"} 1`,
		`vmm_resume_ns_bucket{policy="horse",le="+Inf"} 1`,
		`vmm_resume_ns_sum{policy="vanil"} 1150`,
		`vmm_resume_ns_count{policy="horse"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestMetricsHandlerServesTextAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("horse_splice_ops_total").Add(3)
	r.Histogram("vmm_resume_ns").Observe(150)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	checkExposition(t, buf.String())
	if !strings.Contains(buf.String(), "horse_splice_ops_total 3") {
		t.Fatalf("missing counter:\n%s", buf.String())
	}

	resp2, err := srv.Client().Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp2.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["horse_splice_ops_total"] != 3 {
		t.Fatalf("json snapshot = %+v", snap)
	}
}
