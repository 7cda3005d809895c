package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// Host-speed calibration.
//
// On a shared host, a core's speed drifts by a quarter or more over
// tens of seconds to minutes as other tenants load the machine (a
// 2-vCPU Xeon VM showed a fixed loop's time swing 0.21-0.35 s within a
// minute, with no steal time reported). Medians over units cannot take
// out drift that outlasts a run. So every timed unit is paired with a
// timing of a fixed reference kernel taken right after it, and the
// unit's host seconds are rescaled by refNominalS / that reference
// time. Host slowness hits both alike and cancels; a change to the
// program moves only the unit.
//
// The kernels use the standard library alone, so no change to the
// repository can move them. Each does what its workloads spend their
// time on, since contention slows kinds of work unequally: recordsKernel
// the cluster workloads' small JSON round trips, allocation, sorting and
// hashing; listKernel paper-repro's walks of a deep linked runqueue.

// refNominalS is the reference time a rescaled timing is expressed
// against: such a timing reads the seconds it would have taken on a
// host where its reference timing takes refNominalS.
const refNominalS = 0.05

// refRounds is how many kernels each reference goroutine runs per
// timing.
const refRounds = 10

// reference is a kernel timed beside a measurement, and how many
// goroutines run it: as many as the measured work keeps busy.
type reference struct {
	kernel func() uint64
	procs  int
}

// setupRef is timed beside every set-up batch. Every workload's set-up
// runs on one goroutine and allocates small structures, like
// recordsKernel.
var setupRef = reference{kernel: recordsKernel, procs: 1}

// time collects the heap, then runs refRounds kernels on each of procs
// goroutines and returns the host seconds until the last ends.
// Collecting first keeps what the program left behind out of the
// reference's own collections.
func (r reference) time() float64 {
	runtime.GC()
	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < r.procs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < refRounds; i++ {
				r.kernel()
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// scale rescales a host time measured beside a reference timing of ref
// seconds to the nominal host speed.
func scale(ref float64) float64 {
	return refNominalS / ref
}

// xorshift returns a fixed pseudo-random sequence.
func xorshift() func() uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	return func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
}

type refRecord struct {
	ID    int                `json:"id"`
	Name  string             `json:"name"`
	Vals  []float64          `json:"vals"`
	Attrs map[string]float64 `json:"attrs"`
}

// recordsKernel round-trips 600 small records through JSON, sorts
// 20,000 keys and hashes the encoding; it returns a checksum.
func recordsKernel() uint64 {
	next := xorshift()
	recs := make([]refRecord, 600)
	for i := range recs {
		r := refRecord{ID: i, Name: fmt.Sprintf("rec-%d", i), Vals: make([]float64, 8),
			Attrs: map[string]float64{"lo": float64(i), "hi": float64(2 * i)}}
		for j := range r.Vals {
			r.Vals[j] = float64(next()%1_000_000) / 1000
		}
		recs[i] = r
	}
	raw, err := json.Marshal(recs)
	if err != nil {
		panic(err) // the records always encode
	}
	var back []refRecord
	if err := json.Unmarshal(raw, &back); err != nil {
		panic(err) // they decode from their own encoding
	}
	keys := make([]uint64, 20000)
	for i := range keys {
		keys[i] = next()
	}
	slices.Sort(keys)
	sum := sha256.Sum256(raw)
	return binary.LittleEndian.Uint64(sum[:]) ^ keys[len(keys)/2] ^ uint64(len(back))
}

type listNode struct {
	next *listNode
	key  uint64
	_    [40]byte // an entity's size, roughly
}

// listKernel links 6,600 nodes, as deep as paper-repro's §5.2 backlog,
// in an order unrelated to where they lie in memory, then walks the
// list 150 times; it returns a checksum.
func listKernel() uint64 {
	const n = 6600
	nodes := make([]*listNode, n)
	for i := range nodes {
		nodes[i] = &listNode{key: uint64(i)}
	}
	next := xorshift()
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	for i := 0; i+1 < n; i++ {
		nodes[i].next = nodes[i+1]
	}
	var sum uint64
	for walk := 0; walk < 150; walk++ {
		for e := nodes[0]; e != nil; e = e.next {
			sum += e.key ^ uint64(walk)
		}
	}
	return sum
}
