// Package stream exercises the maporder analyzer: values derived from
// map iteration must not reach ordered output without a sort.
package stream

import (
	"fmt"
	"io"
	"sort"

	"mapsrc"
)

type registry struct {
	shards map[string]int
}

type counter struct{}

func (*counter) Inc() {}

type metrics struct{}

func (metrics) Counter(name string, labels ...string) *counter { return &counter{} }

func emit(rows []string) {}

// EmitInRange prints the key while still inside the map range: flagged.
func (r *registry) EmitInRange(w io.Writer) {
	for k := range r.shards {
		fmt.Fprintf(w, "%s\n", k) // want `value derived from map iteration flows into ordered output via Fprintf`
	}
}

// LocalMap shows the same shape over a map-typed local.
func LocalMap(w io.Writer) {
	counts := map[string]int{"a": 1}
	for k := range counts {
		fmt.Fprintln(w, k) // want `value derived from map iteration flows into ordered output via Fprintln`
	}
}

// MetricLabel mints a telemetry label from the map key; the propagation
// runs through a plain assignment first.
func (r *registry) MetricLabel(m metrics) {
	for k := range r.shards {
		label := k
		m.Counter("shard_ops_total", "shard", label).Inc() // want `value derived from map iteration flows into a telemetry instrument lookup via Counter`
	}
}

// StaticLabel rebinds the loop variable's target to a constant: clean.
func (r *registry) StaticLabel(m metrics) {
	for range r.shards {
		label := "all"
		m.Counter("shard_ops_total", "shard", label).Inc()
	}
}

// ReturnUnsorted hands the caller a slice built in map order.
func (r *registry) ReturnUnsorted() []string {
	var names []string
	for k := range r.shards {
		names = append(names, k)
	}
	return names // want `slice names accumulates map-range values \(append at line \d+\) and is returned without a sort`
}

// SortedReturn is the repository idiom: collect, sort, then use.
func (r *registry) SortedReturn() []string {
	var names []string
	for k := range r.shards {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// BranchSortedOneArm sorts on only one branch arm — the multi-path case
// a token-level lint cannot see: the fallthrough path is still unsorted.
func (r *registry) BranchSortedOneArm(fast bool) []string {
	var names []string
	for k := range r.shards {
		names = append(names, k)
	}
	if fast {
		sort.Strings(names)
	}
	return names // want `slice names accumulates map-range values \(append at line \d+\) and is returned without a sort`
}

// PassedUnsorted hands the unsorted accumulator to an arbitrary call.
func (r *registry) PassedUnsorted() {
	var names []string
	for k := range r.shards {
		names = append(names, k)
	}
	emit(names) // want `slice names accumulates map-range values \(append at line \d+\) and is passed to emit without a sort`
}

// Relaunder ranges over the unsorted accumulator: the element variable
// re-taints, so the intermediate slice does not hide map order.
func (r *registry) Relaunder(w io.Writer) {
	var names []string
	for k := range r.shards {
		names = append(names, k)
	}
	for _, v := range names {
		fmt.Fprintln(w, v) // want `value derived from map iteration flows into ordered output via Fprintln`
	}
}

// Total is an order-insensitive reduction: compound assignment does not
// propagate taint.
func (r *registry) Total() int {
	sum := 0
	for _, v := range r.shards {
		sum += v
	}
	return sum
}

// Mirror writes into another map: map writes are order-insensitive.
func (r *registry) Mirror() map[string]int {
	dst := make(map[string]int, len(r.shards))
	for k, v := range r.shards {
		dst[k] = v
	}
	return dst
}

// Allowed shows the escape hatch: the reason is mandatory.
func (r *registry) Allowed(w io.Writer) {
	for k := range r.shards {
		//horselint:allow-maporder debug dump read by humans only
		fmt.Fprintln(w, k)
	}
}

// CrossPackage ranges over a map another package returns: the operand's
// type, not its syntax, makes it a map range.
func CrossPackage() []string {
	var rows []string
	for k := range mapsrc.Summarize() {
		rows = append(rows, k)
	}
	return rows // want `slice rows accumulates map-range values \(append at line \d+\) and is returned without a sort`
}
