package dora

import (
	"sync"
	"sync/atomic"
)

// inbox is a partition's work queue. It is a mutex-guarded slice rather
// than a channel because DORA's deadlock-avoidance protocol requires
// enqueueing all actions of a transaction phase into several partitions
// *atomically* and in canonical partition order (the engine locks every
// target inbox, appends everywhere, then unlocks) — channels cannot do a
// multi-queue atomic insert.
//
// The consumer drains in batches: popAll hands the worker everything
// queued in one mutex+cond round, so a worker processing a burst pays one
// synchronization round per burst, not one per message. qlen mirrors the
// queue length atomically for the load balancer's cross-partition probes.
type inbox struct {
	mu       sync.Mutex
	nonEmpty *sync.Cond
	items    []msg
	closed   bool
	qlen     atomic.Int64
	// qcont mirrors how much of qlen is ship traffic (every shipMsg, and
	// the kontMsgs carrying continuations home) — the monitor's signal
	// for how much of a worker's queue depth the ship machinery
	// contributes.
	qcont atomic.Int64
}

func newInbox() *inbox {
	ib := &inbox{}
	ib.nonEmpty = sync.NewCond(&ib.mu)
	return ib
}

// push appends one message (single-queue convenience path).
func (ib *inbox) push(m msg) {
	ib.mu.Lock()
	ib.appendLocked(m)
	ib.unlockAfterEnqueue()
}

// pushChecked appends one message unless the inbox is closed; callers
// that hand work to a specific worker (ships, forwarding, re-routing)
// use it so a retired worker's queue never swallows a message nobody
// would process.
func (ib *inbox) pushChecked(m msg) bool {
	if ib.lockForEnqueue() {
		ib.mu.Unlock()
		return false
	}
	ib.appendLocked(m)
	ib.unlockAfterEnqueue()
	return true
}

// lockForEnqueue / appendLocked / unlockAfterEnqueue implement the
// multi-partition atomic enqueue. Callers must lock all target inboxes
// in canonical (ascending worker id) order, and must not append to an
// inbox lockForEnqueue reports closed: its worker may already be gone.
func (ib *inbox) lockForEnqueue() (closed bool) {
	ib.mu.Lock()
	return ib.closed
}
func (ib *inbox) appendLocked(m msg) {
	ib.items = append(ib.items, m)
	ib.qlen.Add(1)
	switch m.(type) {
	case *shipMsg, *kontMsg:
		ib.qcont.Add(1)
	}
}
func (ib *inbox) unlockAfterEnqueue() {
	ib.mu.Unlock()
	ib.nonEmpty.Signal()
}

// popAll blocks until at least one message is available, then drains the
// whole queue into buf (reused across calls) — one mutex+cond round per
// batch. It returns ok=false when the inbox is closed and fully drained.
func (ib *inbox) popAll(buf []msg) (batch []msg, ok bool) {
	ib.mu.Lock()
	for len(ib.items) == 0 && !ib.closed {
		ib.nonEmpty.Wait()
	}
	if len(ib.items) == 0 {
		ib.mu.Unlock()
		return buf[:0], false
	}
	// Swap buffers: the worker processes the drained slice while new
	// pushes fill the (cleared) previous one.
	batch = ib.items
	for i := range buf {
		buf[i] = nil
	}
	ib.items = buf[:0]
	ib.qlen.Store(0)
	ib.qcont.Store(0)
	ib.mu.Unlock()
	return batch, true
}

// length returns the current queue length — a single atomic load, no
// mutex round: the load balancer polls every partition each tick.
func (ib *inbox) length() int {
	return int(ib.qlen.Load())
}

// contLength returns how much of the current queue is continuation
// traffic (monitor statistic).
func (ib *inbox) contLength() int {
	return int(ib.qcont.Load())
}

// close makes the inbox refuse checked pushes and wakes the worker to
// exit once the queue drains (engine shutdown; a merge retiring its
// forwarder).
func (ib *inbox) close() {
	ib.mu.Lock()
	ib.closed = true
	ib.mu.Unlock()
	ib.nonEmpty.Broadcast()
}
