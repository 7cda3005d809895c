package faultinject

import "testing"

// TestSiteIndexFollowsSites pins the dense site index to Sites' order,
// one slot per defined site, and -1 for any other name.
func TestSiteIndexFollowsSites(t *testing.T) {
	sites := Sites()
	if len(sites) != numSites {
		t.Fatalf("Sites() has %d sites, numSites is %d", len(sites), numSites)
	}
	for i, s := range sites {
		if got := siteIndex(s); got != i {
			t.Errorf("siteIndex(%q) = %d, want %d", s, got, i)
		}
	}
	for _, s := range []Site{"", "Resume", "resume ", "cluster.node"} {
		if got := siteIndex(s); got != -1 {
			t.Errorf("siteIndex(%q) = %d, want -1", s, got)
		}
	}
}

var sinkIndex int

// TestHotPathAllocFree pins siteIndex, and Check wherever it does not
// fire, at zero allocations: an armed site whose rules pass, a site no
// rule arms, and a nil injector. Only a fired fault allocates, its
// *Error.
func TestHotPathAllocFree(t *testing.T) {
	in, err := New(1, Rule{Site: SiteResume, Nth: 1 << 62}, Rule{Site: SitePause, Rate: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		sinkIndex = siteIndex(SiteNodeDrain)
	}); n != 0 {
		t.Errorf("siteIndex allocates %v per call, want 0", n)
	}
	var none *Injector
	for _, tc := range []struct {
		name string
		in   *Injector
		site Site
	}{
		{"armed-nth", in, SiteResume},
		{"armed-rate", in, SitePause},
		{"unarmed", in, SiteInvoke},
		{"nil-injector", none, SiteResume},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(1000, func() {
				if err := tc.in.Check(tc.site); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("Check allocates %v per call, want 0", n)
			}
		})
	}
}
