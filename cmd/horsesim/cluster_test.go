package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func clusterOut(t *testing.T, args ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := run(append([]string{"cluster"}, args...), &buf); err != nil {
		t.Fatalf("cluster %v: %v", args, err)
	}
	return buf.Bytes()
}

// TestClusterRunsAreByteIdentical pins the subcommand's determinism
// contract: the same flags produce the same bytes, and a different seed
// produces different traffic.
func TestClusterRunsAreByteIdentical(t *testing.T) {
	args := []string{"-nodes", "8", "-policy", "ull-affinity", "-seed", "42"}
	first := clusterOut(t, args...)
	second := clusterOut(t, args...)
	if !bytes.Equal(first, second) {
		t.Fatalf("same seed produced different reports:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	other := clusterOut(t, "-nodes", "8", "-policy", "ull-affinity", "-seed", "43")
	if bytes.Equal(first, other) {
		t.Fatal("seeds 42 and 43 produced identical reports")
	}
}

func TestClusterAllPolicies(t *testing.T) {
	for _, policy := range []string{"round-robin", "least-loaded", "ull-affinity"} {
		out := string(clusterOut(t, "-policy", policy, "-seed", "7"))
		if !strings.HasPrefix(strings.SplitN(out, "\n", 2)[1], policy+",") {
			t.Fatalf("policy %s not echoed in report:\n%s", policy, out)
		}
	}
}

func TestClusterJSONFormat(t *testing.T) {
	out := clusterOut(t, "-format", "json", "-seed", "42")
	var report struct {
		Policy   string `json:"policy"`
		Arrivals uint64 `json:"arrivals"`
		Served   uint64 `json:"served"`
	}
	if err := json.Unmarshal(out, &report); err != nil {
		t.Fatalf("JSON report does not parse: %v\n%s", err, out)
	}
	if report.Policy != "ull-affinity" || report.Arrivals == 0 || report.Served == 0 {
		t.Fatalf("implausible report: %+v", report)
	}
}

func TestClusterFaultsSurfaceFailovers(t *testing.T) {
	out := string(clusterOut(t,
		"-seed", "42", "-faults", "cluster.node.fail:nth=50"))
	if !strings.Contains(out, "node-failed") {
		t.Fatalf("node-failure run reports no node-failed failovers:\n%s", out)
	}
}

func TestClusterMixedWorkloads(t *testing.T) {
	out := string(clusterOut(t, "-seed", "3", "-arrivals",
		"scan=poisson:rate=500/s,mode=horse;thumbnail=onoff:on=20ms,off=80ms,rate=200/s,mode=warm"))
	for _, want := range []string{"scan,true,", "thumbnail,false,", "warm,"} {
		if !strings.Contains(out, want) {
			t.Fatalf("mixed-workload report missing %q:\n%s", want, out)
		}
	}
}

func TestClusterBadArguments(t *testing.T) {
	tests := [][]string{
		{"-nodes", "0"},
		{"-ull-nodes", "9", "-nodes", "8"},
		{"-policy", "bogus"},
		{"-arrivals", "scan=poisson:rate=-1/s"},
		{"-arrivals", "bogus=poisson:rate=100/s"},
		{"-faults", "bogus-spec"},
		{"-format", "xml"},
		{"-badflag"},
		{"-tenants", "bad name:weight=2"},
		{"-tenants", "acme:weight=0"},
		{"-preset", "no-such-preset"},
		{"-arrivals", "scan=poisson:rate=5/s,tenant=ghost", "-tenants", "acme:weight=2"},
		{"-pool", "-2"},
		{"-ull-slots", "-1"},
		{"-ull-slots", "-1", "-ull-nodes", "0"},
		{"-ull-admit-rate", "NaN"},
		{"-ull-admit-rate", "-5"},
		{"-ull-admit-rate", "6000"},
	}
	for _, args := range tests {
		var buf bytes.Buffer
		if err := run(append([]string{"cluster"}, args...), &buf); err == nil {
			t.Fatalf("cluster args %v accepted", args)
		}
	}
}

// TestClusterTenantsFlag runs a tenanted mix end to end and checks the
// report carries the per-tenant accounting sections.
func TestClusterTenantsFlag(t *testing.T) {
	out := string(clusterOut(t, "-seed", "42",
		"-arrivals", "scan=poisson:rate=2000/s,mode=horse,tenant=steady;nat=poisson:rate=9000/s,mode=horse,tenant=greedy",
		"-tenants", "steady:weight=4,slots=3;greedy:weight=1,rate=500/s,burst=20,slots=1",
		"-ull-admit-rate", "6000"))
	for _, want := range []string{
		"tenant,weight,entitlement,", "steady,4,3,", "greedy,1,1,",
		"rejection_reason,count", "admission,",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("tenanted report missing %q:\n%s", want, out)
		}
	}
}

// TestClusterPresetFlag pins that the named adversarial preset runs end
// to end from the CLI, that its runs are byte-identical, and that an
// explicit flag overrides the preset's value.
func TestClusterPresetFlag(t *testing.T) {
	args := []string{"-seed", "42", "-preset", "adversarial-tenants"}
	first := string(clusterOut(t, args...))
	second := string(clusterOut(t, args...))
	if first != second {
		t.Fatal("preset runs with the same seed differ")
	}
	for _, want := range []string{"steady,", "greedy,", "admission,"} {
		if !strings.Contains(first, want) {
			t.Fatalf("preset report missing %q:\n%s", want, first)
		}
	}
	// An explicit -tenants wins over the preset's contract.
	override := string(clusterOut(t, "-seed", "42", "-preset", "adversarial-tenants",
		"-tenants", "steady:weight=1,slots=2;greedy:weight=1,slots=2"))
	if !strings.Contains(override, "steady,1,2,") {
		t.Fatalf("explicit -tenants did not override the preset:\n%s", override)
	}
}

// TestClusterTraceOutIsByteIdentical pins the -trace-out determinism
// contract at the CLI level: same flags ⇒ byte-identical Perfetto file
// (and byte-identical report), different seed ⇒ different traces. The
// round-robin + node-failure combination guarantees a violator
// population so the file carries full span trees, not just worst-K.
func TestClusterTraceOutIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	render := func(name, seed string) string {
		path := filepath.Join(dir, name)
		clusterOut(t,
			"-policy", "round-robin", "-seed", seed,
			"-faults", "cluster.node.fail:nth=20",
			"-trace-out", path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	first := render("a.json", "42")
	second := render("b.json", "42")
	if first != second {
		t.Fatal("same seed produced different -trace-out files")
	}
	if first == render("c.json", "43") {
		t.Fatal("seeds 42 and 43 produced identical -trace-out files")
	}
	for _, want := range []string{`"trace_id"`, `"trigger-flow"`, `"slo-violation"`, `"displayTimeUnit"`} {
		if !strings.Contains(first, want) {
			t.Fatalf("-trace-out file missing %q", want)
		}
	}
}

// TestClusterTraceOutAttributionMatches: the attribution section of the
// CSV report must be present and identical across same-seed runs (it is
// part of the byte-identical report contract).
func TestClusterTraceOutAttributionMatches(t *testing.T) {
	out := string(clusterOut(t, "-seed", "42"))
	if !strings.Contains(out, "attribution_mode,stage,class,count,total_ns,p50_ns,p99_ns,max_ns") {
		t.Fatalf("CSV report has no attribution section:\n%s", out)
	}
	if !strings.Contains(out, ",invoke,serving,") {
		t.Fatalf("attribution section has no serving invoke row:\n%s", out)
	}
}

// TestClusterShardsAreByteIdentical pins the -shards flag's contract:
// sharding the serve phase may only change wall-clock time, never a
// byte of the report. Out-of-range values clamp rather than fail.
func TestClusterShardsAreByteIdentical(t *testing.T) {
	base := []string{"-nodes", "8", "-policy", "ull-affinity", "-seed", "42",
		"-faults", "cluster.node.fail:nth=20"}
	sequential := clusterOut(t, append(base, "-shards", "1")...)
	for _, shards := range []string{"3", "8", "64"} {
		sharded := clusterOut(t, append(base, "-shards", shards)...)
		if !bytes.Equal(sequential, sharded) {
			t.Fatalf("-shards %s produced a different report than -shards 1:\n--- shards=1 ---\n%s\n--- shards=%s ---\n%s",
				shards, sequential, shards, sharded)
		}
	}
}
