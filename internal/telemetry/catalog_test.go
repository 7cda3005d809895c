package telemetry

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// parseDesignTable extracts the §8 instrument table from DESIGN.md as
// family → definition.
func parseDesignTable(t *testing.T) map[string]InstrumentDef {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatalf("reading DESIGN.md: %v", err)
	}
	out := make(map[string]InstrumentDef)
	inTable := false
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break // table ended
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 4 {
			continue
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if cells[0] == "Instrument" || strings.HasPrefix(cells[0], "---") {
			if cells[0] == "Instrument" {
				inTable = true
			}
			continue
		}
		if !inTable {
			continue
		}
		def := InstrumentDef{
			Family: strings.Trim(cells[0], "`"),
			Kind:   InstrumentKind(cells[1]),
			Help:   cells[3],
		}
		if cells[2] != "" {
			for _, l := range strings.Split(cells[2], ",") {
				def.Labels = append(def.Labels, strings.Trim(strings.TrimSpace(l), "`"))
			}
		}
		out[def.Family] = def
	}
	if len(out) == 0 {
		t.Fatal("no instrument table found in DESIGN.md §8")
	}
	return out
}

// TestCatalogMatchesDesignDoc asserts the DESIGN.md §8 table and the Go
// catalog are the same table: same families, kinds, labels, and help
// strings in both directions.
func TestCatalogMatchesDesignDoc(t *testing.T) {
	doc := parseDesignTable(t)
	code := catalogIndex
	for fam, want := range doc {
		got, ok := code[fam]
		if !ok {
			t.Errorf("DESIGN.md documents %q but internal/telemetry/catalog.go does not define it", fam)
			continue
		}
		if got.Kind != want.Kind {
			t.Errorf("%s: kind %q in catalog, %q in DESIGN.md", fam, got.Kind, want.Kind)
		}
		if !reflect.DeepEqual(got.Labels, want.Labels) {
			t.Errorf("%s: labels %v in catalog, %v in DESIGN.md", fam, got.Labels, want.Labels)
		}
		if got.Help != want.Help {
			t.Errorf("%s: help %q in catalog, %q in DESIGN.md", fam, got.Help, want.Help)
		}
	}
	for fam := range code {
		if _, ok := doc[fam]; !ok {
			t.Errorf("catalog defines %q but DESIGN.md §8 does not document it", fam)
		}
	}
}

// TestPrometheusHeadersMatchCatalog creates one instrument per catalog
// entry and asserts the exposition output carries the catalog's # HELP
// and # TYPE lines for every family.
func TestPrometheusHeadersMatchCatalog(t *testing.T) {
	r := NewRegistry()
	for _, def := range Catalog() {
		var labels []string
		for _, k := range def.Labels {
			labels = append(labels, k, "x")
		}
		switch def.Kind {
		case KindCounter:
			r.Counter(def.Family, labels...).Inc()
		case KindGauge:
			r.Gauge(def.Family, labels...).Set(1)
		case KindHistogram:
			r.Histogram(def.Family, labels...).Observe(150)
		default:
			t.Fatalf("%s: unknown kind %q", def.Family, def.Kind)
		}
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, def := range Catalog() {
		help := fmt.Sprintf("# HELP %s %s\n", def.Family, def.Help)
		if !strings.Contains(text, help) {
			t.Errorf("exposition missing %q", strings.TrimSpace(help))
		}
		typ := fmt.Sprintf("# TYPE %s %s\n", def.Family, def.Kind)
		if !strings.Contains(text, typ) {
			t.Errorf("exposition missing %q", strings.TrimSpace(typ))
		}
	}
}

// TestCatalogShapes pins structural invariants of the catalog itself:
// Prometheus-legal family names, help text present, counters suffixed
// _total, histograms suffixed _ns (virtual nanoseconds).
func TestCatalogShapes(t *testing.T) {
	seen := make(map[string]bool)
	for _, def := range Catalog() {
		if seen[def.Family] {
			t.Errorf("duplicate catalog family %q", def.Family)
		}
		seen[def.Family] = true
		if def.Help == "" {
			t.Errorf("%s: empty help text", def.Family)
		}
		if strings.ContainsAny(def.Family, "{}\" -") {
			t.Errorf("%s: illegal characters in family name", def.Family)
		}
		switch def.Kind {
		case KindCounter:
			if !strings.HasSuffix(def.Family, "_total") {
				t.Errorf("%s: counters must end in _total", def.Family)
			}
		case KindHistogram:
			if !strings.HasSuffix(def.Family, "_ns") {
				t.Errorf("%s: duration histograms must end in _ns", def.Family)
			}
		case KindGauge:
		default:
			t.Errorf("%s: unknown kind %q", def.Family, def.Kind)
		}
	}
}
