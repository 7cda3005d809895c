// Package anno exercises the phaseann analyzer's vocabulary rules:
// well-formed directives, phase-closure over the Each handler set, and
// barrier discipline.
package anno

// ShardGroup mimics the eventsim barrier primitive.
type ShardGroup struct{}

//horselint:coordinator
func (g *ShardGroup) Each(busy []bool, fn func(shard int) error) error { return fn(0) }

// state participates in the ownership contract.
type state struct {
	n int //horselint:coordinator
}

//horselint:shardphase
//horselint:coordinator
func confused() {} // want `confused is annotated both //horselint:shardphase and //horselint:coordinator: a function belongs to one phase`

//horselint:shardphase
//horselint:shardphase
func twice() {} // want `twice: duplicated ownership directive`

//horselint:shardlocal
func wrongSubject() {} // want `wrongSubject: shardlocal annotates state, not functions; use //horselint:shardphase or //horselint:coordinator`

type fields struct {
	//horselint:shardphase
	b int // want `field fields\.b: shardphase annotates functions, not state; use //horselint:shardlocal or //horselint:coordinator`

	//horselint:shardlocal
	//horselint:coordinator
	c int // want `field fields\.c is annotated both //horselint:shardlocal and //horselint:coordinator: state has one owner`

	//horselint:coordinator
	//horselint:coordinator
	d int // want `field fields\.d: duplicated ownership directive`
}

// a1 and a2 own a same-named field differently. Fields are identified
// by their declaration, not their name, so the two never conflict.
type a1 struct {
	//horselint:coordinator
	shared int
}

type a2 struct {
	//horselint:shardlocal
	shared int
}

// runBarrier's handler drags both2 into the shard phase; the closure
// edge from runBarrier keeps it coordinator-reachable too. The busy set
// is data, not a handler, so passing it as a variable is clean.
//
//horselint:coordinator
func runBarrier(g *ShardGroup, s *state, busy []bool) error {
	return g.Each(busy, func(shard int) error {
		both2()
		return nil
	})
}

// shardDriver reaches tally from the shard phase only.
//
//horselint:shardphase
func shardDriver() { tally(0) }

func tally(int) {} // want `tally is reachable from the shard phase but not annotated //horselint:shardphase: .*shardDriver -> .*tally`

func both2() {} // want `both2 is reachable from both the shard phase and the coordinator phase but carries no annotation; decide its phase \(//horselint:shardphase or //horselint:coordinator\) instead of merging them silently: .*runBarrier\$1 -> .*both2`

// naked erects a barrier without being coordinator-annotated.
func naked(g *ShardGroup) error {
	return g.Each(nil, func(shard int) error { return nil }) // want `ShardGroup\.Each erects a serve barrier; only a //horselint:coordinator function may call it \(caller naked\)`
}

// named passes a function value instead of a literal, so the root set
// is not syntactically closed.
//
//horselint:coordinator
func named(g *ShardGroup, busy []bool) error {
	return g.Each(busy, handlerFn) // want `ShardGroup\.Each handler must be a function literal so the shard-phase root set stays closed`
}

//horselint:shardphase
func handlerFn(shard int) error { return nil }
