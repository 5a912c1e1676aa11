// Package clog is the scalable log manager: a consolidation-array WAL
// append path with decoupled buffer fill and flush pipelining, in the
// style of Aether (Johnson et al., VLDB 2010) — the same research group's
// follow-on to DORA. It removes the log-buffer serialization point that
// experiment E4 identifies as the bottleneck left after DORA bypasses the
// centralized lock manager:
//
//   - Consolidation array: concurrent appenders combine their buffer-space
//     requests in a small array of slots. The first thread to join a slot
//     becomes the group's leader and is the only one that enters the
//     serialized tail-reservation step; while it waits for that mutex,
//     later arrivals CAS themselves into the group, so contention grows
//     group size instead of queue length.
//   - Decoupled buffer fill: space reservation (a pointer bump) is the only
//     serialized step. Record serialization — the checksummed framing and
//     the memcpy, which a single-mutex log performs inside its critical
//     section — happens in parallel after reservation, each member writing
//     its own disjoint extent region.
//   - Flush pipelining: a flush daemon hardens completed groups in LSN
//     order and completes transactions asynchronously via ForceAsync, so
//     commit never blocks a worker thread on the device sync, and one sync
//     covers every group that completed in the meantime (group commit).
//
// The record encoding is wal's (wal.EncodeInto), so the ARIES scanner
// and recovery read clog-produced logs through wal's decoder.
package clog

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/metrics"
	"dora/internal/trace"
	"dora/internal/wal"
)

// ErrClosed reports a force against a closed log manager.
var ErrClosed = errors.New("clog: log manager closed")

const (
	// numSlots is the consolidation-array width. A few slots spread the
	// join CASes; every slot's group still reserves through one mutex, so
	// LSN space stays contiguous.
	numSlots = 4
	// maxPending bounds bytes reserved but not yet hardened: a
	// reservation waits for the flush daemon until its extent fits under
	// it (backpressure grows the waiting leaders' groups). Only an extent
	// larger than the bound by itself is admitted past it, and only into
	// an empty pipeline.
	maxPending = 8 << 20
	// flushEvery is the pending-byte level past which group completion
	// wakes the flush daemon even with no force outstanding; below it the
	// daemon sleeps and durability requests drive the pipeline.
	flushEvery = 256 << 10
	// baseSpins is how long a follower spins for its group's base LSN
	// before parking on the channel.
	baseSpins = 128
)

// group is one consolidated append batch: a contiguous LSN extent
// reserved by its leader, filled in parallel by its members.
type group struct {
	// total accumulates members' byte counts while the group is open
	// (joiners CAS it); the leader closes the group by swapping in -1.
	// Pooled groups keep total at -1, so a thread holding a stale pointer
	// from a slot can never join one. (A stale join into a pointer that
	// was already reincarnated as a *different open* group is benign: any
	// successful CAS into an open group is a valid membership.)
	total atomic.Int64
	// size is the final byte count, set by the leader at reservation.
	size int64
	// base is the extent's first LSN; valid once ready is true.
	base  uint64
	buf   []byte
	ready atomic.Bool
	// baseReady is installed lazily by the first follower that exhausts
	// its spin; the leader closes whatever channel it finds after
	// publishing the base.
	baseReady atomic.Pointer[chan struct{}]
	// copied counts member bytes serialized into buf; the group may be
	// flushed when copied == size.
	copied atomic.Int64
	next   *group
}

// groupPool recycles group descriptors (and their extent buffers) once
// the flush daemon has hardened them; on the fast path an append performs
// no allocation at all in steady state.
var groupPool = sync.Pool{New: func() any {
	g := &group{}
	g.total.Store(-1)
	return g
}}

// getGroup returns a closed, reset group ready for reservation (solo use)
// or for opening via total.Store (slot leadership).
func getGroup() *group {
	g := groupPool.Get().(*group)
	g.next = nil
	g.copied.Store(0)
	g.ready.Store(false)
	g.baseReady.Store(nil)
	return g
}

// minExtent is the smallest extent buffer a group allocates. Records
// vary in size (update patches by the bytes they change), so a recycled
// group sized exactly for its first record would regrow for most later
// ones; one allocation of minExtent covers every single-record extent of
// the common shapes.
const minExtent = 128

// extent sizes g.buf for its reservation, reusing the pooled allocation
// when it is big enough and otherwise allocating the next power of two
// (at least minExtent), so a recycled group rarely regrows.
func (g *group) extent(total int64) {
	if int64(cap(g.buf)) < total {
		g.buf = make([]byte, max(minExtent, 1<<bits.Len64(uint64(total-1))))
	}
	g.buf = g.buf[:total]
}

// waiter is one outstanding durability request: an asynchronous force's
// waiter, or the wake-up channel of a blocking Force.
type waiter struct {
	lsn  uint64
	w    wal.Waiter
	wake chan struct{}
}

// callbacks is a batch of asynchronous-force waiters that became due
// together; a completion goroutine runs them and hands the batch back
// for reuse.
type callbacks struct {
	ws  []wal.Waiter
	err error
}

// Log is the consolidation-array log manager. It implements wal.Manager
// and wal.AsyncForcer.
type Log struct {
	store wal.Store
	cs    *metrics.CriticalSectionStats

	slots [numSlots]atomic.Pointer[group]

	// tailMu guards the one serialized step: LSN-space reservation and the
	// reserved-group FIFO append that fixes flush order. Group leaders
	// take it per group; the flush daemon takes it briefly per batch.
	tailMu     sync.Mutex
	nextLSN    uint64
	head, tail *group

	durable atomic.Uint64
	// pending counts bytes reserved but not yet hardened. It grows only
	// under tailMu, after fits admitted the extent, and the flush daemon
	// only shrinks it, so it never exceeds maxPending (see fits).
	pending atomic.Int64
	roomMu  sync.Mutex
	room    *sync.Cond
	// roomWait counts reservations parked in waitForRoom; a completing
	// group wakes the flush daemon for them.
	roomWait atomic.Int64

	// ioMu serializes store writes (flush daemon) against Truncate's
	// store rewrite; sink holds the hardened-extent observer.
	ioMu sync.Mutex
	sink atomic.Pointer[wal.ExtentSink]

	// waitMu guards waiters and the sticky error; nwait mirrors
	// len(waiters) so group completion can test for outstanding forces
	// without the lock.
	waitMu  sync.Mutex
	waiters []waiter
	nwait   atomic.Int64
	err     error

	// batch and fire are the flush daemon's reusable lists of hardened
	// groups and due waiters; spare holds a finished callback batch for
	// the next completion to reuse.
	batch []*group
	fire  []waiter
	spare atomic.Pointer[callbacks]

	flushCh chan struct{}
	stopCh  chan struct{}
	doneCh  chan struct{}
	closed  atomic.Bool

	// tracer, when set, samples appends for the latency tracer's
	// log_reserve / log_fill stages (the Aether decomposition).
	tracer atomic.Pointer[trace.Tracer]

	// Appends counts records; Groups counts consolidated reservations;
	// Forces counts durability requests, Syncs device syncs, and
	// GroupedCommits forces satisfied without a sync of their own.
	Appends        metrics.Counter
	Groups         metrics.Counter
	Forces         metrics.Counter
	GroupedCommits metrics.Counter
	Syncs          metrics.Counter
}

// New creates a consolidation-array log manager over store, writing or
// validating the shared file header, and starts the flush daemon.
func New(store wal.Store, cs *metrics.CriticalSectionStats) (*Log, error) {
	next, err := wal.InitStore(store)
	if err != nil {
		return nil, err
	}
	l := &Log{
		store:   store,
		cs:      cs,
		nextLSN: next,
		flushCh: make(chan struct{}, 1),
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
	l.room = sync.NewCond(&l.roomMu)
	l.durable.Store(next)
	go l.daemon()
	return l, nil
}

// Append implements wal.Manager. The caller's thread either leads a group
// (one serialized reservation for every member) or consolidates into an
// open one and never touches the shared tail at all; either way it
// serializes the record into the group extent in parallel with the other
// members and returns once its bytes are in the log buffer.
func (l *Log) Append(rec *wal.Record) wal.LSN {
	size := int64(wal.EncodedSize(rec))
	l.Appends.Inc()
	// Sampled appends time the two phases Aether decomposes: reserve
	// (entry to base-LSN assignment, the only serialized step) and fill
	// (the parallel serialization into the extent).
	var t0 time.Time
	tr := l.tracer.Load()
	traced := tr.Enabled() && tr.SampleHop()
	if traced {
		t0 = time.Now()
	}
	reserved := func() {
		if traced {
			now := time.Now()
			tr.RecordSpan(trace.StageLogReserve, -1, now.Sub(t0))
			t0 = now
		}
	}
	filled := func() {
		if traced {
			tr.RecordSpan(trace.StageLogFill, -1, time.Since(t0))
		}
	}
	// Adaptive fast path: with the tail uncontended there is nothing to
	// consolidate with — reserve a solo extent directly. Under contention
	// the TryLock fails and appends consolidate instead, which is exactly
	// when grouping pays.
	if l.pending.Load()+size <= maxPending && l.tailMu.TryLock() {
		g := getGroup() // pooled groups are born closed: no one can join
		l.reserveLocked(g, size)
		if l.cs != nil {
			l.cs.Log.Inc()
		}
		g.extent(size)
		reserved()
		rec.LSN = g.base
		wal.EncodeInto(g.buf[:size], rec)
		l.finishCopy(g, size)
		filled()
		return rec.LSN
	}
	slot := &l.slots[rand.IntN(numSlots)]
	for {
		g := slot.Load()
		if g == nil {
			ng := getGroup()
			ng.total.Store(size) // open: joiners may CAS in from here on
			sl := slot
			if !slot.CompareAndSwap(nil, ng) {
				// Lost the installation race. ng must still be led, not
				// discarded: a stale pointer from this descriptor's
				// previous slot life could have joined the moment total
				// opened, and members may only be stranded never.
				sl = nil
			}
			l.lead(sl, ng)
			reserved()
			rec.LSN = ng.base
			wal.EncodeInto(ng.buf[:size], rec)
			l.finishCopy(ng, size)
			filled()
			return rec.LSN
		}
		off, ok := join(g, size)
		if !ok {
			continue // group closed under us; retry with a fresh one
		}
		l.awaitBase(g)
		reserved()
		rec.LSN = g.base + uint64(off)
		wal.EncodeInto(g.buf[off:off+size], rec)
		l.finishCopy(g, size)
		filled()
		return rec.LSN
	}
}

// join CASes size into an open group, returning the member's byte offset
// within the extent. ok is false if the group closed first.
func join(g *group, size int64) (off int64, ok bool) {
	for {
		t := g.total.Load()
		if t < 0 {
			return 0, false
		}
		if g.total.CompareAndSwap(t, t+size) {
			return t, true
		}
	}
}

// lead runs the group leader's serialized step: acquire the tail mutex
// (consolidation keeps happening while it waits), detach and close the
// group, reserve its LSN extent, and publish the base so members can fill
// their regions in parallel. slot is nil when the group never made it
// into the consolidation array.
func (l *Log) lead(slot *atomic.Pointer[group], g *group) {
	// Waiting for room before taking the tail keeps the group open, so
	// backpressure grows it; reserveLocked re-checks the closed total.
	l.waitForRoom(1)
	if l.cs != nil {
		if !l.tailMu.TryLock() {
			l.cs.Contended.Inc()
			l.tailMu.Lock()
		}
		// One serialization-point entry per consolidated group — members
		// that piggybacked never enter it; that is the point.
		l.cs.Log.Inc()
	} else {
		l.tailMu.Lock()
	}
	if slot != nil {
		// Detach before closing: once total goes negative, late joiners
		// must find a fresh slot, not spin on this group.
		slot.CompareAndSwap(g, nil)
	}
	total := g.total.Swap(-1)
	l.reserveLocked(g, total)
	g.extent(total)
	g.ready.Store(true)
	if ch := g.baseReady.Load(); ch != nil {
		close(*ch)
	}
}

// reserveLocked fixes g's extent at the current tail and queues it on the
// flush FIFO — the whole serialized step. Called with tailMu held;
// releases it. The extent is admitted only once it fits under maxPending;
// until then the tail is released while the flush daemon drains. Because
// the admission check and the pending increment happen under the same
// hold of tailMu, no concurrent reservation can slip in between them.
func (l *Log) reserveLocked(g *group, total int64) {
	for !fits(l.pending.Load(), total) {
		l.tailMu.Unlock()
		l.waitForRoom(total)
		l.tailMu.Lock()
	}
	l.pending.Add(total)
	g.size = total
	g.base = l.nextLSN
	l.nextLSN += uint64(total)
	if l.tail == nil {
		l.head = g
	} else {
		l.tail.next = g
	}
	l.tail = g
	l.tailMu.Unlock()
	l.Groups.Inc()
}

// fits reports whether an extent of total bytes may be reserved with
// pending bytes awaiting hardening. An extent larger than maxPending by
// itself fits only an empty pipeline, so it cannot wait forever.
func fits(pending, total int64) bool {
	return pending+total <= maxPending || pending == 0
}

// awaitBase waits for the leader to publish the group's base LSN: a short
// spin (reservation is just a pointer bump away), then a lazily installed
// channel — the common case never allocates it.
func (l *Log) awaitBase(g *group) {
	for i := 0; i < baseSpins; i++ {
		if g.ready.Load() {
			return
		}
	}
	ch := make(chan struct{})
	if !g.baseReady.CompareAndSwap(nil, &ch) {
		ch = *g.baseReady.Load()
	}
	// The leader may have published between the spin and the install; it
	// only closes a channel it observes after setting ready.
	if g.ready.Load() {
		return
	}
	<-ch
}

// finishCopy accounts a member's serialized bytes. The member completing
// the group wakes the flush daemon only when something needs the flush —
// an outstanding force, or enough pending bytes to be worth hardening —
// so an idle pipeline costs appends nothing.
func (l *Log) finishCopy(g *group, size int64) {
	// Read the total before the Add: the completing Add hands the group
	// to the flush daemon, which may recycle the descriptor immediately.
	total := g.size
	if g.copied.Add(size) != total {
		return
	}
	if l.nwait.Load() > 0 || l.roomWait.Load() > 0 || l.pending.Load() >= flushEvery {
		l.kick()
	}
}

func (l *Log) kick() {
	select {
	case l.flushCh <- struct{}{}:
	default:
	}
}

// waitForRoom blocks until an extent of total bytes fits under
// maxPending. Callers never hold the tail mutex here, so the FIFO keeps
// draining; a waiting leader's group keeps consolidating.
func (l *Log) waitForRoom(total int64) {
	if fits(l.pending.Load(), total) {
		return
	}
	l.roomWait.Add(1)
	l.roomMu.Lock()
	for !fits(l.pending.Load(), total) {
		// Every reserved group may already be complete with nothing left
		// to kick the daemon (no force outstanding, pending under
		// flushEvery): wake it here.
		l.kick()
		l.room.Wait()
	}
	l.roomMu.Unlock()
	l.roomWait.Add(-1)
}

// daemon is the flush pipeline: it hardens completed groups in LSN order,
// advances the durability horizon, and completes waiting transactions.
func (l *Log) daemon() {
	defer close(l.doneCh)
	for {
		select {
		case <-l.flushCh:
			l.flushOnce()
		case <-l.stopCh:
			l.flushOnce()
			return
		}
	}
}

// flushOnce writes and syncs the completed prefix of the group FIFO —
// strictly in LSN order, which is what makes early lock release safe: a
// dependent transaction's commit record always hardens after the records
// it depends on.
func (l *Log) flushOnce() {
	l.tailMu.Lock()
	batch := l.batch[:0]
	for g := l.head; g != nil && g.copied.Load() == g.size; g = g.next {
		batch = append(batch, g)
	}
	if len(batch) > 0 {
		l.head = batch[len(batch)-1].next
		if l.head == nil {
			l.tail = nil
		}
	}
	l.tailMu.Unlock()
	if len(batch) == 0 {
		return
	}
	// A dead log stays dead: after a store failure, writing later batches
	// would punch an LSN-offset gap into the stream and let durable
	// advance past records that were never persisted.
	l.waitMu.Lock()
	err := l.err
	l.waitMu.Unlock()
	var bytes int64
	end := uint64(0)
	l.ioMu.Lock()
	for _, g := range batch {
		if err == nil {
			err = l.store.Write(g.buf)
		}
		bytes += g.size
		end = g.base + uint64(g.size)
	}
	if err == nil {
		err = l.store.Sync()
	}
	l.ioMu.Unlock()
	if err == nil {
		l.Syncs.Inc()
		l.durable.Store(end)
		if sp := l.sink.Load(); sp != nil {
			// The sink gets its own copy: the group descriptors (and their
			// extent buffers) go back to the pool right below.
			data := make([]byte, 0, bytes)
			for _, g := range batch {
				data = append(data, g.buf...)
			}
			(*sp)(batch[0].base, data)
		}
	}
	// Hardened descriptors go back to the pool: every member finished
	// (copied == size) before the group entered the batch, so no thread
	// can still touch one.
	for _, g := range batch {
		g.next = nil
		groupPool.Put(g)
	}
	clear(batch)
	l.batch = batch[:0]
	l.pending.Add(-bytes)
	l.roomMu.Lock()
	l.room.Broadcast()
	l.roomMu.Unlock()
	l.completeWaiters(err)
}

// completeWaiters fires durability callbacks: on success, every waiter the
// new horizon covers; on a store error, every waiter (the error is sticky
// and the log is dead).
func (l *Log) completeWaiters(err error) {
	d := l.durable.Load()
	l.waitMu.Lock()
	fire := l.fire[:0]
	if err != nil {
		if l.err == nil {
			l.err = err
		}
		fire = append(fire, l.waiters...)
		clear(l.waiters)
		l.waiters = l.waiters[:0]
		err = l.err
	} else {
		keep := l.waiters[:0]
		for _, w := range l.waiters {
			if d > w.lsn {
				fire = append(fire, w)
			} else {
				keep = append(keep, w)
			}
		}
		clear(l.waiters[len(keep):])
		l.waiters = keep
		// One of the forces this sync hardened paid for it; the rest
		// rode along.
		if len(fire) > 1 {
			l.GroupedCommits.Add(int64(len(fire) - 1))
		}
	}
	l.nwait.Add(-int64(len(fire)))
	l.waitMu.Unlock()
	// Blocking forces are woken right here: each channel has room for
	// its one send, so the daemon never blocks on it, and the woken force
	// reads its outcome from the log itself. Callbacks run off the daemon
	// thread: a commit completion hands the client its verdict, and a
	// client's done may dispatch a new transaction whose first append,
	// under backpressure, parks in waitForRoom — waiting for a flush only
	// the daemon itself can perform.
	var cb *callbacks
	for _, w := range fire {
		if w.wake != nil {
			w.wake <- struct{}{}
			continue
		}
		if cb == nil {
			if cb = l.spare.Swap(nil); cb == nil {
				cb = new(callbacks)
			}
		}
		cb.ws = append(cb.ws, w.w)
	}
	clear(fire)
	l.fire = fire[:0]
	if cb != nil {
		cb.err = err
		go l.runCallbacks(cb)
	}
}

// runCallbacks runs one batch of due callbacks in order, then offers the
// batch back for reuse.
func (l *Log) runCallbacks(cb *callbacks) {
	for _, w := range cb.ws {
		w.Forced(cb.err)
	}
	clear(cb.ws)
	cb.ws = cb.ws[:0]
	l.spare.Store(cb)
}

// settledLocked reports whether a force of lsn is already decided, and
// with what outcome: the sticky store error, else the durable horizon
// (counted as a grouped commit), else ErrClosed — in that order. closing
// lets Close's final flush through after the closed flag is already up.
// Called with waitMu held.
func (l *Log) settledLocked(lsn wal.LSN, closing bool) (settled bool, err error) {
	if l.err != nil {
		return true, l.err
	}
	if l.durable.Load() > lsn {
		l.GroupedCommits.Inc()
		return true, nil
	}
	if !closing && l.closed.Load() {
		return true, ErrClosed
	}
	return false, nil
}

// queueLocked registers w for the flush daemon and releases waitMu.
func (l *Log) queueLocked(w waiter) {
	l.nwait.Add(1)
	l.waiters = append(l.waiters, w)
	l.waitMu.Unlock()
	l.kick()
}

// ForceAsync implements wal.AsyncForcer: w.Forced runs exactly once —
// inline if lsn is already durable, otherwise from a completion goroutine
// once the flush daemon hardens it. Waiters may block and may append (a
// commit's client may start its next transaction from its completion);
// they never run on the daemon itself.
func (l *Log) ForceAsync(lsn wal.LSN, w wal.Waiter) {
	l.Forces.Inc()
	l.waitMu.Lock()
	if ok, err := l.settledLocked(lsn, false); ok {
		l.waitMu.Unlock()
		w.Forced(err)
		return
	}
	l.queueLocked(waiter{lsn: lsn, w: w})
}

// Force implements wal.Manager: it blocks until lsn is durable. A force
// of an already durable LSN allocates nothing; a waiting one allocates
// only the channel the flush daemon wakes it through.
func (l *Log) Force(lsn wal.LSN) error {
	l.Forces.Inc()
	return l.force(lsn, false)
}

// force is Force's body; closing is as for settledLocked.
func (l *Log) force(lsn wal.LSN, closing bool) error {
	l.waitMu.Lock()
	if ok, err := l.settledLocked(lsn, closing); ok {
		l.waitMu.Unlock()
		return err
	}
	// An element-free channel is a single allocation.
	wake := make(chan struct{}, 1)
	l.queueLocked(waiter{lsn: lsn, wake: wake})
	<-wake
	// Woken: either the horizon passed lsn, or the store failed before
	// it did (the horizon then never moves again).
	if l.durable.Load() > lsn {
		return nil
	}
	l.waitMu.Lock()
	defer l.waitMu.Unlock()
	return l.err
}

// FlushAll implements wal.Manager.
func (l *Log) FlushAll() error {
	next := l.Next()
	if next == 0 {
		return nil
	}
	return l.Force(next - 1)
}

// Durable implements wal.Manager.
func (l *Log) Durable() wal.LSN { return l.durable.Load() }

// SetExtentSink implements wal.ExtentSource: fn observes every
// subsequently hardened extent, in LSN order, on the flush daemon — it
// must only hand the extent off, never block on downstream I/O.
func (l *Log) SetExtentSink(fn wal.ExtentSink) {
	if fn == nil {
		l.sink.Store(nil)
		return
	}
	l.sink.Store(&fn)
}

// Truncate implements wal.Truncator: it drops records below origin from
// the backing store, serialized against the flush daemon's writes. origin
// must not exceed the durable horizon.
func (l *Log) Truncate(origin wal.LSN) error {
	if d := l.durable.Load(); origin > d {
		return fmt.Errorf("clog: truncate origin %d above durable horizon %d", origin, d)
	}
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	return wal.Truncate(l.store, origin)
}

// Next implements wal.Manager.
func (l *Log) Next() wal.LSN {
	l.tailMu.Lock()
	n := l.nextLSN
	l.tailMu.Unlock()
	return n
}

// Scan implements wal.Manager using the shared scanner, so a clog-produced
// stream feeds the same ARIES recovery as a legacy one.
func (l *Log) Scan(fn func(*wal.Record) error) error {
	if err := l.FlushAll(); err != nil {
		return err
	}
	raw, err := l.store.Contents()
	if err != nil {
		return err
	}
	return wal.ScanBytes(raw, fn)
}

// Stats implements wal.Manager.
func (l *Log) Stats() wal.Stats {
	a, g := l.Appends.Load(), l.Groups.Load()
	return wal.Stats{
		Appends:        a,
		Forces:         l.Forces.Load(),
		Syncs:          l.Syncs.Load(),
		GroupedCommits: l.GroupedCommits.Load(),
		Groups:         g,
		Consolidated:   a - g,
	}
}

// SetTracer installs (or, with nil, removes) the latency tracer whose
// log_reserve / log_fill stages sampled appends feed.
func (l *Log) SetTracer(t *trace.Tracer) { l.tracer.Store(t) }

// Close implements wal.Manager: it hardens everything appended so far and
// stops the flush daemon. Appends after Close are invalid; forces fail
// with ErrClosed unless already satisfied.
func (l *Log) Close() error {
	if l.closed.Swap(true) {
		<-l.doneCh
		return nil
	}
	var err error
	if next := l.Next(); next > 0 {
		err = l.force(next-1, true)
	}
	close(l.stopCh)
	<-l.doneCh
	return err
}
