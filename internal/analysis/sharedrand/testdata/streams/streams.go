// Package streams exercises the sharedrand analyzer: shard-phase code
// may consume a coordinator-owned stream only by re-keying it through
// Derive, and may never draw from the process-global math/rand stream.
package streams

import "math/rand"

// ShardGroup mimics the eventsim barrier primitive.
type ShardGroup struct{}

//horselint:coordinator
func (g *ShardGroup) Each(busy []bool, fn func(shard int) error) error { return fn(0) }

// Rand is a stream type by name; Derive is the sanctioned re-key.
type Rand struct{}

func (r *Rand) Derive(key uint64) *Rand { return r }
func (r *Rand) Intn(n int) int          { return 0 }

// world owns one shared stream and one per-node stream.
type world struct {
	rng   *Rand //horselint:coordinator
	local *Rand //horselint:shardlocal
}

// pickShared touches the coordinator's stream directly.
//
//horselint:shardphase
func (w *world) pickShared() int {
	return w.rng.Intn(4) // want `shard-phase function \(world\)\.pickShared: uses coordinator-shared stream world\.rng \(derive a per-node stream instead\)`
}

// pickLocal draws from the shard's own stream: fine.
//
//horselint:shardphase
func (w *world) pickLocal() int {
	return w.local.Intn(4)
}

// rekey consumes the shared stream the sanctioned way.
//
//horselint:shardphase
func (w *world) rekey(shard int) int {
	r := w.rng.Derive(uint64(shard))
	return r.Intn(4)
}

// globalDraw advances the process-global stream.
//
//horselint:shardphase
func globalDraw() int {
	return rand.Intn(8) // want `shard-phase function globalDraw: draws from the process-global rand\.Intn stream` `global rand\.Intn draws from the shared process-wide source`
}

// viaHelper reaches the shared stream transitively; the finding is a
// call witness at the call site.
//
//horselint:shardphase
func (w *world) viaHelper() int {
	return w.mix() // want `shard-phase function \(world\)\.viaHelper: call to .*mix may draw from a coordinator-shared stream \(uses coordinator-shared stream world\.rng \(derive a per-node stream instead\)\)`
}

func (w *world) mix() int { return w.rng.Intn(2) }

// run's barrier handler is a shard root like any shardphase function.
//
//horselint:coordinator
func run(g *ShardGroup) error {
	return g.Each(nil, func(shard int) error {
		_ = rand.Float64() // want `shard-phase function run\$1: draws from the process-global rand\.Float64 stream` `global rand\.Float64 draws from the shared process-wide source`
		return nil
	})
}

// seedOnce carries a reasoned allow: excluded from caller-visible
// facts, so the shard-phase caller below sees nothing.
func (w *world) seedOnce() {
	_ = w.rng //horselint:allow-sharedrand stream is keyed before the first barrier is erected
}

//horselint:shardphase
func (w *world) shardCallsSeed() {
	w.seedOnce() // no finding: the vouched access is not a caller-visible fact
}
