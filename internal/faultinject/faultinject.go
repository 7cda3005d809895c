// Package faultinject provides the deterministic, seed-driven fault
// injector behind the platform's robustness testing (DESIGN.md §7's
// failure-injection matrix and §10's degradation story).
//
// An Injector holds a set of Rules, each bound to a named Site — a
// choke point in the control plane where a simulated failure can be
// raised: sandbox creation, pause, resume, snapshot restore, function
// invocation, and sandbox destruction. Production code calls Check at
// each site; a nil error means "proceed", a non-nil error is the
// injected fault, which propagates exactly like the real failure it
// stands in for (the vmm and faas layers cannot tell the difference).
//
// Three trigger shapes cover the §7 matrix:
//
//   - Rate: inject with a fixed probability per visit, drawn from a
//     per-site PRNG derived from the injector seed — so the same seed
//     reproduces the same fault pattern bit-for-bit, and checking one
//     site never perturbs the draw sequence of another.
//   - Nth: inject exactly once, at the nth visit of the site.
//   - Every: inject at every multiple of the given visit count.
//
// A Rule may carry an explicit error to wrap (e.g. vmm.ErrResumeBusy to
// simulate resume-lock contention); matching with errors.Is sees both
// the wrapped error and the ErrInjected sentinel, and errors.As
// recovers the *Error with the site and visit number.
//
// Injector is not safe for concurrent use: like the virtual clock it
// serves, it belongs to the single goroutine driving a simulation.
package faultinject

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strconv"
	"strings"
)

// Site names an injection point in the control plane.
type Site string

// The injection sites wired through vmm and faas (DESIGN.md §10).
const (
	// SiteCreate fires at sandbox creation (vmm.CreateSandbox).
	SiteCreate Site = "create"
	// SitePause fires at pause entry (vmm.BeginPause), covering the
	// vanilla pause, the uLL pause, and the trigger re-pool path.
	SitePause Site = "pause"
	// SiteResume fires at resume entry (vmm.BeginResume), before the
	// resume lock is taken or any queue state is touched.
	SiteResume Site = "resume"
	// SiteRestore fires on the snapshot-restore trigger path (faas).
	SiteRestore Site = "restore"
	// SiteInvoke fires in place of the function invocation (faas),
	// simulating a function crash.
	SiteInvoke Site = "invoke"
	// SiteDestroy fires at sandbox destruction (vmm.DestroySandbox),
	// the failure mode that tests pool consistency on a shrink or a
	// crashed invocation.
	SiteDestroy Site = "destroy"
	// SiteNodeFail fires on the cluster routing path, checked once per
	// routing decision; a fired fault kills the node that was about to
	// serve (pools lost, trigger fails over).
	SiteNodeFail Site = "cluster.node.fail"
	// SiteNodeDrain fires on the cluster routing path like SiteNodeFail,
	// but the node drains gracefully: it stops taking new triggers and
	// its warm capacity is re-homed onto the surviving nodes.
	SiteNodeDrain Site = "cluster.node.drain"
)

// numSites is the number of defined injection sites.
const numSites = 8

// Sites returns every defined injection site in stable order.
func Sites() []Site {
	return []Site{SiteCreate, SitePause, SiteResume, SiteRestore, SiteInvoke, SiteDestroy, SiteNodeFail, SiteNodeDrain}
}

// siteIndex returns s's position in Sites, the index of its state in an
// Injector, or -1 for a name that is no defined site. The switch
// compares lengths before bytes, so a check never hashes the name.
//
//horselint:hotpath
//horselint:shardphase
func siteIndex(s Site) int {
	switch s {
	case SiteCreate:
		return 0
	case SitePause:
		return 1
	case SiteResume:
		return 2
	case SiteRestore:
		return 3
	case SiteInvoke:
		return 4
	case SiteDestroy:
		return 5
	case SiteNodeFail:
		return 6
	case SiteNodeDrain:
		return 7
	}
	return -1
}

// ErrInjected is the sentinel every injected fault matches with
// errors.Is, regardless of the wrapped error.
var ErrInjected = errors.New("faultinject: injected fault")

// ErrBadSpec is the sentinel wrapped by every ParseSpec error, matching
// the loadgen and tenant parser convention: callers branch on the
// sentinel, humans read the quoted fragment and byte offset.
var ErrBadSpec = errors.New("faultinject: bad fault spec")

// Error is the concrete injected fault. It reports the site and the
// 1-based visit at which it fired, and optionally wraps the error the
// rule was configured to simulate.
type Error struct {
	Site  Site
	Visit uint64
	Err   error
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("faultinject: injected fault at %s (visit %d): %v", e.Site, e.Visit, e.Err)
	}
	return fmt.Sprintf("faultinject: injected fault at %s (visit %d)", e.Site, e.Visit)
}

// Is matches the ErrInjected sentinel.
func (e *Error) Is(target error) bool { return target == ErrInjected }

// Unwrap exposes the simulated error, if the rule carried one.
func (e *Error) Unwrap() error { return e.Err }

// Rule arms one site with one trigger. Exactly one of Rate, Nth, or
// Every must be set.
type Rule struct {
	// Site is the injection point the rule arms.
	Site Site
	// Rate injects with this probability (0 < Rate <= 1) per visit.
	Rate float64
	// Nth injects exactly once, at the nth visit (1-based).
	Nth uint64
	// Every injects at every visit that is a multiple of this count.
	Every uint64
	// Err, when non-nil, is wrapped in the injected *Error so callers
	// can match the simulated failure (e.g. vmm.ErrResumeBusy for
	// resume-lock contention). When nil the fault is a bare *Error.
	Err error
}

func (r Rule) validate() error {
	if r.Site == "" {
		return errors.New("faultinject: rule has no site")
	}
	if siteIndex(r.Site) < 0 {
		return fmt.Errorf("faultinject: unknown site %q (known: %s)", r.Site, siteList())
	}
	set := 0
	if r.Rate != 0 {
		// Written as a negated range so NaN, which compares false with
		// everything, is rejected too.
		if !(r.Rate > 0 && r.Rate <= 1) {
			return fmt.Errorf("faultinject: rate %v out of (0,1]", r.Rate)
		}
		set++
	}
	if r.Nth != 0 {
		set++
	}
	if r.Every != 0 {
		set++
	}
	if set != 1 {
		return fmt.Errorf("faultinject: rule for site %q must set exactly one of rate, nth, every", r.Site)
	}
	return nil
}

// siteState is the per-site PRNG plus visit bookkeeping. Ownership is
// per instance: the cluster's parent injector belongs to the
// coordinator (see Cluster.faults), while node-derived children are
// checked from their owning shard — either way, mutation must stay in
// phase-annotated code.
//
//horselint:shardlocal
type siteState struct {
	rng    *rand.Rand
	rules  []Rule
	visits uint64
}

// Injector evaluates the armed rules at each Check. The zero value and
// the nil pointer are inert: Check always returns nil. sites holds each
// armed site's state at its siteIndex; an unarmed site's is nil.
//
//horselint:shardlocal
type Injector struct {
	seed  int64
	sites [numSites]*siteState
}

// New builds an injector from an explicit seed and a rule set. Every
// rule must name a defined site.
//
//horselint:coordinator
func New(seed int64, rules ...Rule) (*Injector, error) {
	in := &Injector{seed: seed}
	for _, r := range rules {
		if err := r.validate(); err != nil {
			return nil, err
		}
		st := in.arm(r.Site)
		st.rules = append(st.rules, r)
	}
	return in, nil
}

// arm returns (creating if needed) the state for s, a defined site,
// with a PRNG whose seed mixes the injector seed and the site name, so
// the draw sequence of one site is independent of how often the others
// are checked.
//
//horselint:coordinator
func (in *Injector) arm(s Site) *siteState {
	i := siteIndex(s)
	if st := in.sites[i]; st != nil {
		return st
	}
	h := fnv.New64a()
	h.Write([]byte(s))
	st := &siteState{rng: rand.New(rand.NewSource(in.seed ^ int64(h.Sum64())))}
	in.sites[i] = st
	return st
}

// state returns the state of site s, or nil when s is unarmed or no
// defined site.
//
//horselint:shardphase
func (in *Injector) state(s Site) *siteState {
	if i := siteIndex(s); i >= 0 {
		return in.sites[i]
	}
	return nil
}

// Derive returns a child injector arming the same rules under a
// scope-mixed seed: each of the child's per-site PRNG streams is seeded
// by (seed ^ fnv64a(scope)) ^ fnv64a(site), and its visit counters
// start at zero. Children exist so concurrent consumers — one platform
// per cluster node, each checked from its own shard goroutine — get
// independent deterministic fault streams instead of racing on one
// shared PRNG: deriving with the node id gives every node the same
// rule set but its own reproducible draw sequence, independent of how
// often the other nodes are checked. Safe on a nil injector (returns
// nil, which is inert).
//
//horselint:coordinator
func (in *Injector) Derive(scope string) *Injector {
	if in == nil {
		return nil
	}
	h := fnv.New64a()
	h.Write([]byte(scope))
	child := &Injector{seed: in.seed ^ int64(h.Sum64())}
	for i, s := range Sites() {
		if st := in.sites[i]; st != nil {
			child.arm(s).rules = append([]Rule(nil), st.rules...)
		}
	}
	return child
}

// Check evaluates site's rules against this visit and returns the
// injected fault, or nil to proceed. Safe on a nil injector.
//
//horselint:shardphase
func (in *Injector) Check(site Site) error {
	if in == nil {
		return nil
	}
	return in.check(site)
}

// check is Check on a non-nil injector; the split keeps Check's nil
// check inlinable into the many call sites of an unarmed platform.
//
//horselint:shardphase
func (in *Injector) check(site Site) error {
	st := in.state(site)
	if st == nil {
		return nil
	}
	st.visits++
	for i := range st.rules {
		r := &st.rules[i]
		fire := false
		switch {
		case r.Nth > 0:
			fire = st.visits == r.Nth
		case r.Every > 0:
			fire = st.visits%r.Every == 0
		case r.Rate > 0:
			fire = st.rng.Float64() < r.Rate
		}
		if fire {
			return &Error{Site: site, Visit: st.visits, Err: r.Err}
		}
	}
	return nil
}

// String renders the armed rules back in ParseSpec syntax, in stable
// site order, for logs and flag round-trips.
func (in *Injector) String() string {
	if in == nil {
		return ""
	}
	var sites []Site
	for _, s := range Sites() {
		if in.state(s) != nil {
			sites = append(sites, s)
		}
	}
	slices.Sort(sites)
	var parts []string
	for _, s := range sites {
		for _, r := range in.state(s).rules {
			switch {
			case r.Nth > 0:
				parts = append(parts, fmt.Sprintf("%s:nth=%d", s, r.Nth))
			case r.Every > 0:
				parts = append(parts, fmt.Sprintf("%s:every=%d", s, r.Every))
			case r.Rate > 0:
				parts = append(parts, fmt.Sprintf("%s:rate=%v", s, r.Rate))
			}
		}
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses the -faults flag syntax: comma-separated
// site:trigger=value clauses, e.g.
//
//	resume:rate=0.05,pause:nth=3,invoke:every=100
//
// Triggers are rate (probability per visit), nth (one-shot at the nth
// visit), and every (periodic). An empty spec yields no rules. Errors
// wrap ErrBadSpec and quote the offending clause with its byte offset
// in the input, so a long -faults flag pinpoints its own typo.
func ParseSpec(spec string) ([]Rule, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var rules []Rule
	at := 0
	for rest := spec; ; {
		raw, tail, more := strings.Cut(rest, ",")
		clause := strings.TrimSpace(raw)
		if clause != "" {
			base := at + strings.Index(raw, clause)
			r, err := parseFaultClause(clause, base)
			if err != nil {
				return nil, err
			}
			rules = append(rules, r)
		}
		if !more {
			break
		}
		at += len(raw) + 1
		rest = tail
	}
	return rules, nil
}

// parseFaultClause parses one site:trigger=value clause; base is the
// clause's byte offset in the full spec, threaded into every error.
func parseFaultClause(clause string, base int) (Rule, error) {
	site, trigger, ok := strings.Cut(clause, ":")
	if !ok {
		return Rule{}, fmt.Errorf("%w: clause %q at offset %d: want site:trigger=value", ErrBadSpec, clause, base)
	}
	if siteIndex(Site(site)) < 0 {
		return Rule{}, fmt.Errorf("%w: unknown site %q at offset %d (known: %s)", ErrBadSpec, site, base, siteList())
	}
	key, value, ok := strings.Cut(trigger, "=")
	triggerAt := base + len(site) + 1
	if !ok {
		return Rule{}, fmt.Errorf("%w: fragment %q at offset %d: want trigger=value", ErrBadSpec, trigger, triggerAt)
	}
	r := Rule{Site: Site(site)}
	switch key {
	case "rate":
		f, err := strconv.ParseFloat(value, 64)
		if err != nil || !(f > 0 && f <= 1) {
			return Rule{}, fmt.Errorf("%w: fragment %q at offset %d: rate must be in (0,1]", ErrBadSpec, trigger, triggerAt)
		}
		r.Rate = f
	case "nth":
		n, err := strconv.ParseUint(value, 10, 64)
		if err != nil || n == 0 {
			return Rule{}, fmt.Errorf("%w: fragment %q at offset %d: nth must be a positive integer", ErrBadSpec, trigger, triggerAt)
		}
		r.Nth = n
	case "every":
		n, err := strconv.ParseUint(value, 10, 64)
		if err != nil || n == 0 {
			return Rule{}, fmt.Errorf("%w: fragment %q at offset %d: every must be a positive integer", ErrBadSpec, trigger, triggerAt)
		}
		r.Every = n
	default:
		return Rule{}, fmt.Errorf("%w: fragment %q at offset %d: unknown trigger %q (want rate, nth, or every)", ErrBadSpec, trigger, triggerAt, key)
	}
	return r, nil
}

// FromSpec builds an injector directly from a spec string and seed. An
// empty spec returns a nil injector, which is valid and inert.
func FromSpec(seed int64, spec string) (*Injector, error) {
	rules, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	if len(rules) == 0 {
		return nil, nil
	}
	return New(seed, rules...)
}

func siteList() string {
	names := make([]string, 0, numSites)
	for _, s := range Sites() {
		names = append(names, string(s))
	}
	return strings.Join(names, ", ")
}
