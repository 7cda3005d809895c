package faultinject

import (
	"errors"
	"reflect"
	"sort"
	"testing"
)

// FuzzParseFaultSpec checks the -faults parser tolerates arbitrary
// input: it must either reject with an error wrapping ErrBadSpec or
// return rules that build an injector whose String form re-parses to the
// same rules.
func FuzzParseFaultSpec(f *testing.F) {
	f.Add("resume:rate=0.05, pause:nth=3,invoke:every=100")
	f.Add("resume:rate=0.5, pause")
	f.Add("resume:rate=0.5,warp:rate=0.5")
	f.Add("pause:nth=3,resume:rate=2")
	f.Add("resume:rate=0")
	f.Add("resume:nth=0")
	f.Add("invoke:every=x")
	f.Add("resume:often=1")
	f.Add("cluster.node.fail:nth=20,resume:rate=1")
	f.Add(" , ,resume:every=2,")
	f.Add("resume:rate=NaN")
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseSpec(spec)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("ParseSpec(%q) error %v does not wrap ErrBadSpec", spec, err)
			}
			return
		}
		inj, err := FromSpec(1, spec)
		if err != nil {
			t.Fatalf("FromSpec(%q) rejected rules ParseSpec accepted: %v", spec, err)
		}
		rendered := inj.String()
		again, err := ParseSpec(rendered)
		if err != nil {
			t.Fatalf("re-parsing rendered form %q of %q: %v", rendered, spec, err)
		}
		// String groups the rules by site, in site order, keeping each
		// site's rules in the order they were given.
		sort.SliceStable(rules, func(i, j int) bool { return rules[i].Site < rules[j].Site })
		if !reflect.DeepEqual(again, rules) {
			t.Fatalf("round trip of %q through %q: %+v, want %+v", spec, rendered, again, rules)
		}
	})
}
