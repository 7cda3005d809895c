package faas

import (
	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/vmm"
)

// pooledSandbox is one paused sandbox in a warm pool; the queue holding
// it says which policy it is armed for.
type pooledSandbox struct {
	sb       *vmm.Sandbox
	pausedAt simtime.Time
}

// policies is the number of pause/resume policies, one warm-pool queue
// each (policyIndex).
const policies = 4

// policyIndex returns the warm-pool queue of policy, or -1 for a policy
// outside core's four. A sandbox only pauses under one of the four, so
// only those reach a pool.
func policyIndex(policy core.Policy) int {
	switch policy {
	case core.Vanilla:
		return 0
	case core.PPSM:
		return 1
	case core.Coal:
		return 2
	case core.Horse:
		return 3
	}
	return -1
}

// poolQueue is one policy's warm pool: a FIFO ring of pooled sandboxes,
// oldest at head. len(buf) is zero or a power of two, so a position
// wraps with a mask; the ring doubles when full and never shrinks, so a
// pool that takes and re-pools in turn neither allocates nor moves its
// entries.
type poolQueue struct {
	buf  []pooledSandbox
	head int
	n    int
}

// at returns the entry i places behind the head.
func (q *poolQueue) at(i int) *pooledSandbox {
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

// push appends ps at the back.
func (q *poolQueue) push(ps pooledSandbox) {
	if q.n == len(q.buf) {
		buf := make([]pooledSandbox, max(4, 2*len(q.buf)))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	*q.at(q.n) = ps
	q.n++
}

// pop takes the entry at the head, clearing its slot.
func (q *poolQueue) pop() (pooledSandbox, bool) {
	if q.n == 0 {
		return pooledSandbox{}, false
	}
	slot := q.at(0)
	ps := *slot
	*slot = pooledSandbox{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return ps, true
}

// remove deletes the entry i places behind the head; the entries
// behind it move one place up.
func (q *poolQueue) remove(i int) {
	for ; i < q.n-1; i++ {
		*q.at(i) = *q.at(i + 1)
	}
	*q.at(q.n - 1) = pooledSandbox{}
	q.n--
}
