package horse_test

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchFunc matches a benchmark definition in a _test.go file.
var benchFunc = regexp.MustCompile(`(?m)^func (Benchmark\w*)\(\w+ \*testing\.B\)`)

// TestBenchBudgetsNameExistingBenchmarks keeps the committed BENCH_*.json
// budgets honest: every budget keyed by a benchmark name (a "/sub" suffix
// names a sub-benchmark of it) must name a benchmark some _test.go in
// this module still defines. Without the check, deleting a benchmark
// leaves its budget behind, pinning nothing.
func TestBenchBudgetsNameExistingBenchmarks(t *testing.T) {
	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			name := d.Name()
			if strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			// A nested go.mod starts another module, whose tests do
			// not run in this one.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range benchFunc.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Budget map[string]json.RawMessage `json:"budget"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		keys := make([]string, 0, len(doc.Budget))
		for key := range doc.Budget {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			if !strings.HasPrefix(key, "Benchmark") {
				continue
			}
			name, _, _ := strings.Cut(key, "/")
			checked++
			if !defined[name] {
				t.Errorf("%s: budget %q names %s, which no _test.go defines", file, key, name)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no benchmark budgets found in BENCH_*.json")
	}
}
