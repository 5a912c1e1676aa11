package dora

import (
	"runtime"
	"sync/atomic"
	"time"

	"dora/internal/btree"
	"dora/internal/catalog"
	"dora/internal/metrics"
	"dora/internal/page"
	"dora/internal/sm"
	"dora/internal/storage"
	"dora/internal/trace"
	"dora/internal/xct"
)

// msg is anything a partition worker can receive.
type msg interface{}

// actionMsg carries one transaction action to the partition owning its
// routing key.
type actionMsg struct {
	act      *xct.Action
	run      *flowRun
	rvp      *rvp  // nil for claims
	routeKey int64 // value in the table's current partition-field space
	at       time.Time
	// claim marks an early lock acquisition for a later-phase action:
	// enqueued atomically with phase 0, it makes every statically-keyed
	// lock of the transaction appear in all queues in one canonical
	// order, which is DORA's deadlock-avoidance protocol. A claim has no
	// body and reports to no RVP.
	claim bool
	// wnLevel/wnID record where the lock table blocked this action (the
	// node wait() parks it at): a key, a granule, or the partition root.
	// rangeNext is a ranged acquire's resume cursor — the next granule id
	// not yet locked, so a promoted range continues instead of
	// restarting.
	wnLevel   uint8
	wnID      int64
	rangeNext int64
}

// releaseMsg tells a partition that txn finished; drop its local locks.
type releaseMsg struct{ txn uint64 }

// splitMsg tells a partition to hand the routing interval [at, hi] over
// to partition to: local-lock state for keys >= at migrates, and every
// claimed index subtree range mapping to the interval changes owner.
type splitMsg struct {
	at int64
	hi int64
	to *partition
}

// adoptMsg delivers migrated lock-table state.
type adoptMsg struct{ locks *hierMoved }

// evacuateMsg tells a partition to hand everything to partition to and
// enter forwarding mode (merge).
type evacuateMsg struct {
	to  *partition
	ack chan struct{}
}

// shipped is a message whose sender blocks on completion: it must be
// completed (ok) or failed — never silently dropped — and, when a
// retiring worker has a successor, it may be forwarded instead.
// applyMsg and maintMsg share this contract; dispose and forwarding
// handle them uniformly through it.
type shipped interface {
	msg
	failShip() // ok=false + wake the sender (worker retired, re-resolve)
}

// applyMsg ships a foreign access-path operation to the worker that owns
// the target subtree: the partitioned B+tree's OwnerExec hook. The worker
// runs fn with its own ownership token; ok=false tells the sender the
// worker retired without running it (re-resolve and retry). path/cyc are
// the debug-mode ship-cycle detector's chain bookkeeping (shipcheck.go).
type applyMsg struct {
	fn   func(tok *btree.Owner)
	done chan struct{}
	ok   bool
	path []shipHop
	cyc  *shipCycleError
}

func (m *applyMsg) failShip() {
	m.ok = false
	close(m.done)
}

// maintMsg ships a background-maintenance operation (heap migration,
// re-stamping, subtree compaction) to a partition worker's thread, where
// it runs with an OwnerCtx view of the partition. Same completion
// contract as applyMsg.
type maintMsg struct {
	fn   func(*OwnerCtx)
	done chan struct{}
	ok   bool
	path []shipHop
	cyc  *shipCycleError
}

func (m *maintMsg) failShip() {
	m.ok = false
	close(m.done)
}

// clearMsg resets the local lock table under a quiesced engine
// (re-partitioning on a new field).
type clearMsg struct{ ack chan struct{} }

// dieMsg terminates the worker after the inbox drains to it.
type dieMsg struct{ ack chan struct{} }

// tickMsg triggers the waiter-timeout sweep.
type tickMsg struct{}

// partition is a DORA micro-engine: one goroutine owning one logical
// partition of one table, executing its action queue serially against a
// private lock table (paper §1.1). Since the partitioned access path it
// also owns the B+tree subtrees covering its key range: its index
// descents are latch-free, and everyone else's operations on those
// subtrees arrive here as applyMsgs.
type partition struct {
	eng    *Dora
	tbl    *catalog.Table
	worker int // global worker id; also the routing handle
	token  *btree.Owner
	in     *inbox
	locks  *hierLockTable
	ses    *sm.Session

	// forward is non-nil after evacuation (merge): everything is
	// forwarded to the adopting partition. Only this worker's goroutine
	// touches it; fwd mirrors it atomically for cross-thread continuation
	// delivery (deliverHome walks the merge chain from owner threads).
	forward *partition
	fwd     atomic.Pointer[partition]
	// homeExec delivers continuations of operations this worker
	// suspended on back to its inbox (built once; handed to the btree
	// layer as the ContExec of every async ship this worker originates).
	homeExec btree.ContExec
	// adoptWait buffers messages until migrated state arrives (split).
	adoptWait bool
	pending   []msg
	// frame is the ship-cycle detector's per-goroutine state (debug
	// mode only; nil otherwise).
	frame *shipFrame

	// Executed counts actions run; Waited counts grant waits; Stale
	// counts re-routed messages (arrived after a range moved away).
	Executed metrics.Counter
	Waited   metrics.Counter
	Stale    metrics.Counter
	// Shipped counts blocking foreign access-path operations executed
	// here (parked-sender applyMsgs); ContShipped counts
	// continuation-passing ones (contMsgs); KontRun counts continuations
	// delivered to and run on this worker (completions of foreign
	// operations it suspended on).
	Shipped     metrics.Counter
	ContShipped metrics.Counter
	KontRun     metrics.Counter
	// OverlapExec counts actions this worker executed while at least one
	// of its earlier actions was suspended on an in-flight foreign
	// operation — the proof that continuation ships keep the sender
	// draining its inbox.
	OverlapExec metrics.Counter
	// HeldKeys mirrors the local lock table size for the monitor;
	// WaitingNow mirrors its parked-waiter count (congestion signal);
	// SuspendedNow counts this worker's actions currently suspended on
	// in-flight foreign operations.
	HeldKeys     metrics.Gauge
	WaitingNow   metrics.Gauge
	SuspendedNow metrics.Gauge
	// Lock-hierarchy accounting, mirrored from the (single-threaded)
	// lock table after each inbox batch: grant operations, coarse range
	// locks, escalations/de-escalations, and maintenance busy probes.
	LockAcquisitions metrics.Gauge
	RangeLocks       metrics.Gauge
	Escalations      metrics.Gauge
	Deescalations    metrics.Gauge
	MaintKeyProbes   metrics.Gauge
	MaintRangeProbes metrics.Gauge
	// ThreadSwitches counts OS-thread migrations observed at timeout
	// ticks (tid changed since the previous tick). Workers are pinned, so
	// it stays zero; a non-zero value means the pin was lost.
	ThreadSwitches metrics.Counter
	lastTID        int64
}

func newPartition(e *Dora, tbl *catalog.Table, worker int, adoptWait bool) *partition {
	tok := btree.NewOwner()
	p := &partition{
		eng:       e,
		tbl:       tbl,
		worker:    worker,
		token:     tok,
		in:        newInbox(),
		locks:     newHierLockTable(e.cfg.EscalateAt),
		ses:       e.sm.OwnedSession(worker, tok),
		adoptWait: adoptWait,
	}
	p.homeExec = p.deliverHome
	return p
}

// ownerExec is the hook installed into claimed subtrees: it ships fn to
// this worker's queue and blocks until the worker ran it. false means the
// worker retired (inbox closed) and the sender must re-resolve. In debug
// mode the ship-cycle detector vets the hop before it is enqueued and
// re-raises a cycle detected by a deeper hop (shipcheck.go).
func (p *partition) ownerExec() btree.OwnerExec {
	return func(fn func(tok *btree.Owner)) bool {
		m := &applyMsg{fn: fn, done: make(chan struct{})}
		if det := p.eng.shipDet; det != nil {
			m.path = det.extendPath(p.worker, true)
		}
		if !p.in.pushChecked(m) {
			return false
		}
		<-m.done
		if m.cyc != nil {
			panic(m.cyc)
		}
		return m.ok
	}
}

// loop is the worker body: batch-drain the inbox (one mutex round per
// batch), process serially. The goroutine is pinned to its OS thread
// for its whole life: a micro-engine's cache/NUMA locality is the point
// of thread-to-data, and the scheduler migrating it between threads (and
// with them, cores) forfeits it.
func (p *partition) loop() {
	defer p.eng.wg.Done()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p.lastTID = osThreadID()
	if det := p.eng.shipDet; det != nil {
		p.frame = det.register(p.worker)
		defer det.unregister()
	}
	var buf []msg
	for {
		batch, ok := p.in.popAll(buf)
		if !ok {
			return
		}
		for i, m := range batch {
			if p.handle(m) {
				// Retiring mid-batch: don't strand the tail — forward it
				// (or fail shipped ops) exactly like queued leftovers.
				for _, rest := range batch[i+1:] {
					p.dispose(rest)
				}
				for _, rest := range p.in.closeAndDrain() {
					p.dispose(rest)
				}
				return
			}
		}
		p.mirrorLockStats()
		buf = batch
	}
}

// mirrorLockStats publishes the thread-private lock table's accounting
// through the partition's atomic gauges (monitor, E19).
func (p *partition) mirrorLockStats() {
	p.WaitingNow.Set(int64(p.locks.waitingCount()))
	p.HeldKeys.Set(int64(p.locks.heldKeys()))
	st := p.locks.snapshotStats()
	p.LockAcquisitions.Set(st.acquisitions)
	p.RangeLocks.Set(st.rangeLocks)
	p.Escalations.Set(st.escalations)
	p.Deescalations.Set(st.deescalations)
	p.MaintKeyProbes.Set(st.keyProbes)
	p.MaintRangeProbes.Set(st.rangeProbes)
}

// dispose routes a message this retiring worker will never process:
// forwarded when a successor exists, failed back to the sender when its
// sender is parked on the reply, dropped otherwise (parity with messages
// that used to rot in a dead worker's queue). Continuations are special:
// losing one strands a transaction's RVP, so with no live successor they
// run inline on this (the disposing) goroutine — the shutdown
// fall-through, where the access paths are back on the shared latched
// path.
//
// Parked-sender ships (applyMsg, maintMsg) must NEVER be forwarded: the
// merge successor can be the ship's own sender — a worker blocked on
// <-done inside its current action — and a forwarded ship then sits in
// the blocked sender's own inbox forever (self-deadlock, which then
// wedges the next split's adoption and the merge's evacuate ack).
// Failing the ship instead wakes the sender with ok=false; the
// ascendAs/runAt/ExecOnOwner loops re-resolve the subtree — already
// reassigned to the successor before forwarding mode starts — and retry
// there, or run locally if the sender itself adopted the range.
func (p *partition) dispose(m msg) {
	if km, isKont := m.(*kontMsg); isKont {
		if p.forward == nil || !p.forward.in.pushChecked(m) {
			km.k()
		}
		return
	}
	switch m.(type) {
	case *applyMsg, *maintMsg:
		m.(shipped).failShip()
		return
	}
	if sh, isShipped := m.(shipped); isShipped {
		if p.forward == nil || !p.forward.in.pushChecked(m) {
			sh.failShip()
		}
		return
	}
	if p.forward != nil {
		p.forward.in.push(m)
	}
}

// handle processes one message; it returns true when the worker must exit.
func (p *partition) handle(m msg) bool {
	// Forwarding mode (after merge evacuation): everything moves on.
	if p.forward != nil {
		if t, isDie := m.(*dieMsg); isDie {
			close(t.ack)
			return true
		}
		p.dispose(m)
		return false
	}
	// Adoption wait (split target): buffer until state arrives.
	if p.adoptWait {
		switch t := m.(type) {
		case *adoptMsg:
			p.adoptWait = false
			runnable := p.locks.adopt(t.locks)
			pend := p.pending
			p.pending = nil
			for _, am := range runnable {
				p.execute(am)
			}
			for _, bm := range pend {
				if p.handle(bm) {
					return true
				}
			}
		case *dieMsg:
			close(t.ack)
			return true
		default:
			p.pending = append(p.pending, m)
		}
		return false
	}

	switch t := m.(type) {
	case *actionMsg:
		p.handleAction(t)
	case *applyMsg:
		p.Shipped.Inc()
		t.cyc = p.runShipped(t.path, func() { t.fn(p.token) })
		t.ok = true
		close(t.done)
	case *maintMsg:
		t.cyc = p.runShipped(t.path, func() { t.fn(&OwnerCtx{p: p}) })
		t.ok = true
		close(t.done)
	case *contMsg:
		// Continuation ship: run the op, enqueue the continuation back.
		// A cycle error can still surface here in debug mode — a nested
		// BLOCKING hop inside fn targeting a parked worker aborts the op
		// midway. There is no parked sender to unwind it to, so fail
		// fast on this thread rather than deliver a half-executed op as
		// success.
		p.ContShipped.Inc()
		if !t.at.IsZero() {
			p.eng.cfg.Tracer.RecordSpan(trace.StageShip, p.worker, time.Since(t.at))
		}
		if cyc := p.runShipped(t.path, func() { t.fn(p.token) }); cyc != nil {
			panic(cyc)
		}
		t.deliver(true)
	case *maintContMsg:
		if cyc := p.runShipped(t.path, func() { t.fn(&OwnerCtx{p: p}) }); cyc != nil {
			panic(cyc)
		}
		t.deliver(true)
	case *kontMsg:
		// A foreign operation this worker suspended on completed: run the
		// continuation on this thread (it may resume an action body, ship
		// again, or report to an RVP).
		p.KontRun.Inc()
		if !t.at.IsZero() {
			p.eng.cfg.Tracer.RecordSpan(trace.StageKont, p.worker, time.Since(t.at))
		}
		t.k()
	case releaseMsg:
		runnable := p.locks.release(t.txn)
		p.HeldKeys.Set(int64(p.locks.heldKeys()))
		for _, am := range runnable {
			p.execute(am)
		}
	case *splitMsg:
		moved := p.locks.extractAbove(t.at)
		p.HeldKeys.Set(int64(p.locks.heldKeys()))
		// Heap hand-over: pages holding records of the moved interval
		// lose our exclusivity promise — the new owner's mutations will
		// run on ITS thread. Strip our stamps from them (here, on our
		// thread, so none of our latch-free reads are in flight); the
		// maintenance daemon re-converges the layout behind the split.
		p.unstampMoved(t.at, t.hi)
		// Access-path hand-over: every claimed index subtree range that
		// maps to the moved routing interval changes owner, on this
		// thread, so no latch-free descent of ours can be in flight.
		p.moveAccessPaths(t.at, t.hi, t.to)
		t.to.in.push(&adoptMsg{locks: moved})
	case *adoptMsg:
		// Merge adoption into a live partition.
		runnable := p.locks.adopt(t.locks)
		p.HeldKeys.Set(int64(p.locks.heldKeys()))
		for _, am := range runnable {
			p.execute(am)
		}
	case *evacuateMsg:
		moved := p.locks.extractAll()
		p.HeldKeys.Set(0)
		// The adopter takes our subtrees wholesale (no data movement)
		// — and with them our heap-page stamps: it inherits all our
		// ranges, so the exclusivity promise transfers intact.
		for _, ix := range p.tbl.Indexes() {
			if pt := ix.Partitioned(); pt != nil {
				pt.ReassignOwner(p.token, t.to.token, t.to.ownerExec(), t.to.ownerExecAsync())
			}
		}
		p.tbl.Heap.ReassignStamps(p.token, t.to.token)
		t.to.in.push(&adoptMsg{locks: moved})
		p.forward = t.to
		p.fwd.Store(t.to)
		close(t.ack)
	case *clearMsg:
		// The table is replaced (its key space changed meaning); fold its
		// cumulative accounting into the engine's retired totals first so
		// LockSnapshot never goes backward.
		p.eng.retiredLocks.fold(p.locks.snapshotStats())
		p.locks = newHierLockTable(p.eng.cfg.EscalateAt)
		p.mirrorLockStats()
		close(t.ack)
	case tickMsg:
		if tid := osThreadID(); tid != p.lastTID {
			if p.lastTID != 0 && tid != 0 {
				p.ThreadSwitches.Inc()
			}
			p.lastTID = tid
		}
		p.sweepTimeouts()
	case *dieMsg:
		close(t.ack)
		return true
	}
	return false
}

// unstampMoved strips this worker's heap-page stamps from every page
// holding a record of routing interval [at, hi] (found through the
// owned primary subtree, which still covers the interval at this
// point). Runs on the owning worker's thread, before the subtree
// hand-over.
func (p *partition) unstampMoved(at, hi int64) {
	pk := p.tbl.Primary
	rr := p.tbl.RouteFor(pk, p.tbl.PartitionField())
	if pk.Partitioned() == nil || rr == nil {
		return
	}
	keyLo, keyHi := rr(at, hi)
	var pids []page.ID
	seen := make(map[page.ID]bool)
	pk.Tree.AscendRangeAs(p.token, keyLo, keyHi, func(_ int64, v uint64) bool {
		pid := storage.UnpackRID(v).Page
		if !seen[pid] && p.tbl.Heap.StampOwner(pid) == p.token {
			seen[pid] = true
			pids = append(pids, pid)
		}
		return true
	})
	p.tbl.Heap.UnstampPages(p.token, pids)
}

// moveAccessPaths hands the subtree ranges for routing interval [at, hi]
// of every claimed index over to partition q.
func (p *partition) moveAccessPaths(at, hi int64, q *partition) {
	pf := p.tbl.PartitionField()
	for _, ix := range p.tbl.Indexes() {
		pt := ix.Partitioned()
		rr := p.tbl.RouteFor(ix, pf)
		if pt == nil || rr == nil {
			continue
		}
		keyLo, keyHi := rr(at, hi)
		pt.MoveRange(p.token, keyLo, keyHi, q.token, q.ownerExec(), q.ownerExecAsync())
	}
}

func (p *partition) handleAction(am *actionMsg) {
	// Stale routing: the range moved (split/merge raced the dispatch).
	// Send it to the current owner.
	if owner := p.eng.ownerOf(p.tbl, am.routeKey); owner != nil && owner != p {
		p.Stale.Inc()
		owner.in.push(am)
		return
	}
	if am.claim && am.run.failed() {
		return // aborted before the claim was processed: drop it
	}
	if p.locks.acquire(am) {
		p.HeldKeys.Set(int64(p.locks.heldKeys()))
		p.execute(am)
		return
	}
	p.Waited.Inc()
	p.locks.wait(am)
}

// execute runs a granted action and reports to its RVP. Granted claims
// have nothing to run: the lock is now held for the future action.
//
// The body receives an AsyncHost: it may suspend itself on a foreign
// operation, in which case the worker moves on (draining its inbox while
// the foreign op is in flight) and the action's resume continuation
// reports to the RVP instead.
func (p *partition) execute(am *actionMsg) {
	if am.claim {
		return
	}
	p.Executed.Inc()
	if am.run.failed() {
		// The transaction already aborted: skip the body, just report so
		// the RVP completes and the rollback can proceed.
		p.eng.report(am.rvp, nil)
		return
	}
	if p.SuspendedNow.Load() > 0 {
		p.OverlapExec.Inc()
	}
	// Traced transactions: the span from dispatch to here is inbox queue
	// wait (plus any local lock wait); the body that follows is exec. A
	// suspending body's exec span covers the portion before Run returns —
	// the foreign round trip shows up as its suspend span instead.
	tt := am.run.txn.Trace
	var execAt time.Time
	if tt != nil {
		execAt = time.Now()
		tt.Span(trace.StageQueueWait, p.worker, am.at, execAt.Sub(am.at))
	}
	host := &actionHost{p: p, am: am}
	err := am.act.Run(&xct.Env{Txn: am.run.txn, Ses: p.ses, Async: host})
	if tt != nil {
		tt.Span(trace.StageExec, p.worker, execAt, time.Since(execAt))
	}
	if host.suspended {
		return // the resume continuation owns the RVP report
	}
	p.eng.report(am.rvp, err)
}

// sweepTimeouts aborts waiters stuck beyond the engine's local timeout —
// the safety net for cross-partition waits the canonical enqueue order
// cannot serialize (multi-phase conflicts). The lock table walks its
// parked waiters; this judge decides who stays.
func (p *partition) sweepTimeouts() {
	limit := p.eng.cfg.LocalTimeout
	if limit <= 0 {
		return
	}
	now := time.Now()
	p.locks.sweepWaiters(func(w *actionMsg) bool {
		if w.claim {
			// Claims never time out (the claimed action's own wait does);
			// drop them once their transaction has failed.
			return !w.run.failed()
		}
		if now.Sub(w.at) > limit && !w.run.failed() {
			p.eng.Timeouts.Inc()
			p.eng.report(w.rvp, ErrLocalTimeout)
			return false
		}
		// Already-failed runs: flush them out too, reporting.
		if w.run.failed() {
			p.eng.report(w.rvp, nil)
			return false
		}
		return true
	})
}

// queueLen reports the inbox length (load-balancing signal).
func (p *partition) queueLen() int { return p.in.length() }
