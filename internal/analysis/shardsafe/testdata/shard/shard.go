// Package shard exercises the shardsafe analyzer: coordinator-owned
// state must be unreachable from shard-phase roots, and every owned
// write must live in phase-annotated code.
package shard

// ShardGroup mimics the eventsim barrier primitive; the analyzer
// resolves Each calls by receiver type name.
type ShardGroup struct{}

//horselint:coordinator
func (g *ShardGroup) Each(busy []bool, fn func(shard int) error) error { return fn(0) }

// sim is the cluster-like state under test.
type sim struct {
	cursor int //horselint:coordinator
	tally  int //horselint:coordinator
	local  int //horselint:shardlocal
}

// run drives one barrier with a handler literal that captures the
// coordinator's state.
//
//horselint:coordinator
func (s *sim) run(g *ShardGroup) error {
	return g.Each(nil, func(shard int) error {
		s.local++        // shard-local: fine inside a handler
		_ = s.cursor     // want `shard-phase function \(sim\)\.run\$1: reads coordinator-owned field sim\.cursor`
		s.tally += shard // want `shard-phase function \(sim\)\.run\$1: writes coordinator-owned field sim\.tally`
		return nil
	})
}

// pingShard and pongCoord are a mutual-recursion SCC spanning both
// phases: the shard root reaches the coordinator-only function, and the
// fixpoint must converge on the cycle.
//
//horselint:shardphase
func (s *sim) pingShard(depth int) {
	if depth > 0 {
		s.pongCoord(depth - 1) // want `shard-phase function \(sim\)\.pingShard: call to .*pongCoord may read coordinator-owned state \(reads coordinator-owned field sim\.cursor\)`
	}
}

//horselint:coordinator
func (s *sim) pongCoord(depth int) { // want `coordinator-only function \(sim\)\.pongCoord is reachable from the shard phase: .*pingShard -> .*pongCoord`
	_ = s.cursor
	if depth > 0 {
		s.pingShard(depth - 1)
	}
}

// bump and bumpLocal write owned fields from unannotated code.
func (s *sim) bump() {
	s.tally++ // want `write to coordinator-owned field sim\.tally outside phase-annotated code: annotate the enclosing function //horselint:coordinator or //horselint:shardphase`
}

func (s *sim) bumpLocal() {
	s.local++ // want `write to shard-owned field sim\.local outside phase-annotated code`
}

// vouch carries a reasoned allow: the write is suppressed at the site
// AND excluded from the facts, so shard-phase callers see nothing.
func (s *sim) vouch() {
	s.cursor = 0 //horselint:allow-shardsafe reset runs before the first barrier is erected
}

//horselint:shardphase
func (s *sim) shardCallsVouch() {
	s.vouch() // no finding: the vouched write is not a caller-visible fact
}
