package dora

import (
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

// msg is anything a partition worker can receive. The worker switches
// over six types: actionMsg and releaseMsg (the transaction hot path),
// adoptMsg (migrated lock state), ctlMsg (every other topology or
// housekeeping step), shipMsg (an operation shipped to the owner's
// thread) and kontMsg (a shipped operation's continuation coming home).
type msg interface{}

// actionMsg carries one transaction action to the partition owning its
// routing key.
type actionMsg struct {
	act      *xct.Action
	run      *flowRun
	rvp      *rvp  // nil for claims
	routeKey int64 // value in the table's current partition-field space
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
	// host and env are the body's execution environment, filled in when
	// the action runs (execute); embedding them keeps an action's run
	// free of allocations of its own.
	host actionHost
	env  xct.Env
}

// releaseMsg tells a partition that txn finished; drop its local locks.
// The commit broadcast pushes one shared *releaseMsg per run.
type releaseMsg struct{ txn uint64 }

// adoptMsg delivers migrated lock-table state.
type adoptMsg struct{ locks *hierMoved }

// ctlMsg runs a control step on the worker's thread: a split hand-over
// (splitOut), a merge evacuation (evacuate), a lock-table reset
// (clearLocks) or the timeout sweep (sweepTimeouts).
type ctlMsg func(*partition)

// partition is a DORA micro-engine: one goroutine owning one logical
// partition of one table, executing its action queue serially against a
// private lock table (paper §1.1). Since the partitioned access path it
// also owns the B+tree subtrees covering its key range: its index
// descents are latch-free, and everyone else's operations on those
// subtrees arrive here as shipMsgs.
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
	// exited is closed once the worker goroutine (or forwarder) is done.
	exited chan struct{}
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
	// Shipped counts foreign access-path operations executed here for a
	// parked sender; ContShipped counts continuation-passing ones;
	// KontRun counts continuations delivered to and run on this worker
	// (completions of foreign operations it suspended on).
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
		exited:    make(chan struct{}),
	}
	p.homeExec = p.deliverHome
	return p
}

// loop is the worker body: batch-drain the inbox (one mutex round per
// batch), process serially. It is a plain goroutine, not locked to an OS
// thread: when its inbox is empty it parks in the Go scheduler, which
// hands the thread to other runnable goroutines instead of putting it to
// sleep in the kernel. Thread-to-data holds at the level the engine
// relies on — one goroutine owns the partition's lock table, subtrees
// and stamped pages. When an action's report completes its transaction,
// the commit (or the rollback's start) runs here too (Dora.resolve).
func (p *partition) loop() {
	defer p.eng.wg.Done()
	defer close(p.exited)
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
		for _, m := range batch {
			p.handle(m)
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

// dispose routes a message this forwarding worker will never process.
// One rule per kind:
//
//   - a ship is failed back and never forwarded: the merge successor can
//     be the ship's own sender, and a continuation sender — or a
//     non-worker sender parked on the reply — re-resolves the subtree,
//     already reassigned to the successor before forwarding starts;
//   - a kontMsg is forwarded, or run inline when no successor is left
//     (losing one strands a transaction's RVP; with every hop retired the
//     access paths are back on the shared latched path);
//   - any other message is forwarded. Forwarding walks the merge chain to
//     its first live inbox; an action that finds none goes to its key's
//     current owner.
func (p *partition) dispose(m msg) {
	if sh, isShip := m.(*shipMsg); isShip {
		sh.deliver(false)
		return
	}
	if p.forward.forwardFrom(m) {
		return
	}
	switch t := m.(type) {
	case *kontMsg:
		t.k()
	case *actionMsg:
		p.reroute(t, p.eng.ownerOf(p.tbl, t.routeKey))
	}
}

// reroute hands am to owner, re-resolving while the owner it found has
// closed its inbox: a merge retires a worker only after its ranges are
// reassigned, so the next lookup names the adopter. Only engine shutdown
// resolves to the same closed owner twice; am is dropped then (no
// transaction is in flight).
func (p *partition) reroute(am *actionMsg, owner *partition) {
	for owner != nil && !owner.in.pushChecked(am) {
		next := p.eng.ownerOf(p.tbl, am.routeKey)
		if next == owner {
			return
		}
		owner = next
	}
}

// handle processes one message.
func (p *partition) handle(m msg) {
	// Forwarding mode (after merge evacuation): everything moves on.
	if p.forward != nil {
		p.dispose(m)
		return
	}
	// Adoption wait (split target): buffer until state arrives.
	if p.adoptWait {
		t, isAdopt := m.(*adoptMsg)
		if !isAdopt {
			p.pending = append(p.pending, m)
			return
		}
		p.adoptWait = false
		runnable := p.locks.adopt(t.locks)
		pend := p.pending
		p.pending = nil
		for _, am := range runnable {
			p.execute(am)
		}
		for _, bm := range pend {
			p.handle(bm)
		}
		return
	}

	switch t := m.(type) {
	case *actionMsg:
		p.handleAction(t)
	case *releaseMsg:
		p.release(t.txn)
	case *adoptMsg:
		// Merge adoption into a live partition.
		runnable := p.locks.adopt(t.locks)
		p.HeldKeys.Set(int64(p.locks.heldKeys()))
		for _, am := range runnable {
			p.execute(am)
		}
	case ctlMsg:
		t(p)
	case *shipMsg:
		// Run the op and deliver the reply. A parked sender re-raises a
		// cycle error a nested blocking hop inside fn detected; a
		// continuation sender has nobody parked to unwind it to, so fail
		// fast on this thread rather than deliver a half-executed op as
		// success.
		if t.access {
			if t.parked {
				p.Shipped.Inc()
			} else {
				p.ContShipped.Inc()
			}
		}
		if !t.at.IsZero() {
			p.eng.cfg.Tracer.RecordSpan(trace.StageShip, p.worker, time.Since(t.at))
		}
		p.runShip(t)
		if t.cyc != nil && !t.parked {
			panic(t.cyc)
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
	}
}

// release drops txn's local locks and runs the actions that became
// grantable.
func (p *partition) release(txn uint64) {
	runnable := p.locks.release(txn)
	p.HeldKeys.Set(int64(p.locks.heldKeys()))
	for _, am := range runnable {
		p.execute(am)
	}
}

// splitOut hands routing interval [at, hi] over to partition to:
// local-lock state for keys >= at migrates, and every claimed index
// subtree range mapping to the interval changes owner.
func (p *partition) splitOut(at, hi int64, to *partition) {
	moved := p.locks.extractAbove(at)
	p.HeldKeys.Set(int64(p.locks.heldKeys()))
	// Heap hand-over: pages holding records of the moved interval lose
	// our exclusivity promise — the new owner's mutations will run on ITS
	// thread. Strip our stamps from them (here, on our thread, so none of
	// our latch-free reads are in flight); the maintenance daemon
	// re-converges the layout behind the split.
	p.unstampMoved(at, hi)
	// Access-path hand-over: every claimed index subtree range that maps
	// to the moved routing interval changes owner, on this thread, so no
	// latch-free descent of ours can be in flight.
	p.moveAccessPaths(at, hi, to)
	to.in.push(&adoptMsg{locks: moved})
}

// evacuate hands everything to partition to and enters forwarding mode
// (merge).
func (p *partition) evacuate(to *partition) {
	moved := p.locks.extractAll()
	p.HeldKeys.Set(0)
	// The adopter takes our subtrees wholesale (no data movement) — and
	// with them our heap-page stamps: it inherits all our ranges, so the
	// exclusivity promise transfers intact.
	for _, ix := range p.tbl.Indexes() {
		if pt := ix.Partitioned(); pt != nil {
			pt.ReassignOwner(p.token, to.token, to.accessExec, to.accessExecAsync)
		}
	}
	p.tbl.Heap.ReassignStamps(p.token, to.token)
	to.in.push(&adoptMsg{locks: moved})
	p.forward = to
	p.fwd.Store(to)
}

// clearLocks resets the local lock table under a quiesced engine
// (re-partitioning on a new field). The table is replaced (its key space
// changed meaning); its cumulative accounting folds into the engine's
// retired totals first so LockSnapshot never goes backward.
func (p *partition) clearLocks() {
	p.eng.retiredLocks.fold(p.locks.snapshotStats())
	p.locks = newHierLockTable(p.eng.cfg.EscalateAt)
	p.mirrorLockStats()
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
		pt.MoveRange(p.token, keyLo, keyHi, q.token, q.accessExec, q.accessExecAsync)
	}
}

func (p *partition) handleAction(am *actionMsg) {
	// Stale routing: the range moved (split/merge raced the dispatch).
	// Send it to the current owner.
	if owner := p.eng.ownerOf(p.tbl, am.routeKey); owner != nil && owner != p {
		p.Stale.Inc()
		p.reroute(am, owner)
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
		tt.Span(trace.StageQueueWait, p.worker, am.rvp.at, execAt.Sub(am.rvp.at))
	}
	am.host = actionHost{p: p, am: am}
	am.env = am.run.flow.Env(&am.run.txn, p.ses)
	am.env.Async = &am.host
	err := am.act.Run(&am.env)
	if tt != nil {
		tt.Span(trace.StageExec, p.worker, execAt, time.Since(execAt))
	}
	if am.host.suspended {
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
		if now.Sub(w.rvp.at) > limit && !w.run.failed() {
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
