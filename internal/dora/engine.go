// Package dora implements the paper's contribution: the data-oriented
// transaction execution engine. Work is assigned thread-to-data: the
// database is decomposed into logical partitions by per-table routing
// rules; each partition is owned by a micro-engine (worker goroutine)
// that executes the actions routed to it serially against a private lock
// table, bypassing the centralized lock manager entirely. Rendezvous
// points coordinate the phases of each transaction's flow graph, and the
// last action to report decides commit or abort.
//
// Partitions are purely logical (key ranges in routing tables), so load
// imbalance is fixed by moving range boundaries — no data moves, and no
// distributed transactions appear (paper §1.1).
//
// Execution is asynchronous end to end: cross-partition operations ship
// with continuations instead of parking their senders (cont.go), action
// bodies suspend on foreign logical ops while their worker drains its
// inbox, and phases advance purely by RVP countdowns (ExecAsync) — no
// goroutine ever waits on another partition's work, which makes
// arbitrary action bodies deadlock-safe by construction.
//
// Each partition's private lock table is hierarchical (hierlock.go): a
// partition root, 256-key granules, and key nodes, with the classic
// IS/IX/S/SIX/X multigranularity modes. Point actions take intents down
// the path and a key lock at the leaf; range scans take one coarse S
// (or X) per covered granule — root-level when the range spans too many
// — instead of expanding key by key; maintenance gates clear whole
// ranges with one coarse probe. A transaction that accumulates
// Config.EscalateAt key locks under one granule escalates them to a
// single granule hold, and a later conflicting request de-escalates it
// back to key granularity (re-materializing the holder's keys), with an
// adaptive backoff that suppresses re-escalation after a conflict.
// Because the table is thread-private, all of this is latch-free: no
// lock-manager mutex exists at any granularity.
package dora

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"dora/internal/btree"
	"dora/internal/buffer"
	"dora/internal/catalog"
	"dora/internal/dora/router"
	"dora/internal/metrics"
	"dora/internal/sm"
	"dora/internal/trace"
	"dora/internal/xct"
)

// Config tunes the engine.
type Config struct {
	// PartitionsPerTable is the initial number of partitions each table
	// gets (default 4).
	PartitionsPerTable int
	// Domains gives the routing-value domain [lo, hi] per table name.
	// Tables without an entry default to [0, 1<<31].
	Domains map[string][2]int64
	// LocalTimeout bounds waits in partition lock tables (default 2s).
	LocalTimeout time.Duration
	// TickEvery is the timeout-sweep period (default 250ms).
	TickEvery time.Duration
	// DebugShipCheck enables the ship-graph cycle detector: every
	// owner-thread ship — blocking or continuation — carries its chain
	// of traversed workers, and a ship targeting a worker already in the
	// chain is reported (shipcheck.go). The report is a fail-fast
	// diagnostic panic when that worker is parked on the chain (a
	// blocking hop: the cycle would deadlock) and a counted non-fatal
	// diagnosis when it is not (continuation hops cannot wedge). Debug
	// mode: it costs a goroutine-id lookup per ship.
	DebugShipCheck bool
	// Tracer, when non-nil, samples transactions for end-to-end latency
	// attribution: admission, inbox queue wait, action execution, ship
	// hops, and the commit pipeline all record spans against it. Give
	// the same tracer to sm.Options.Spans so the log stages join in.
	Tracer *trace.Tracer
	// EscalateAt is the per-(transaction, granule) key-lock count that
	// triggers lock escalation in the hierarchical tables (default 16;
	// negative disables escalation).
	EscalateAt int
}

func (c *Config) fill() {
	if c.PartitionsPerTable <= 0 {
		c.PartitionsPerTable = 4
	}
	if c.LocalTimeout <= 0 {
		c.LocalTimeout = 2 * time.Second
	}
	if c.TickEvery <= 0 {
		c.TickEvery = 250 * time.Millisecond
	}
}

// Dora is the data-oriented execution engine.
type Dora struct {
	sm  *sm.SM
	cfg Config

	// execGate: Exec holds it shared for a transaction's lifetime;
	// Repartition (partition-field change) takes it exclusively to
	// quiesce the engine.
	execGate sync.RWMutex

	// topoMu guards the partition topology (tableParts, routers, nextID).
	topoMu     sync.RWMutex
	routers    map[uint32]*router.Table
	tableParts map[uint32][]*partition // live partitions per table
	byWorker   map[int]*partition
	nextWorker int

	coordSes *sm.Session
	wg       sync.WaitGroup
	stopTick chan struct{}
	closed   bool

	// shipDet is the debug-mode ship-cycle detector (nil when off).
	shipDet *shipDetector
	// cleaner is the engine-owned buffer-pool flush daemon (see New).
	cleaner *buffer.Cleaner
	// rebalanceHook notifies the maintenance daemon of topology changes.
	hookMu        sync.Mutex
	rebalanceHook func(RebalanceEvent)

	// Committed/Aborted count outcomes; Timeouts counts local lock-wait
	// aborts; RollbackFailures counts aborts whose undo failed (the
	// client got a *RollbackError and the run's local locks stay held).
	Committed        metrics.Counter
	Aborted          metrics.Counter
	Timeouts         metrics.Counter
	RollbackFailures metrics.Counter
	// AsyncResolves counts unaligned-action resolver probes dispatched in
	// continuation-passing form (the dispatcher suspended instead of
	// blocking on the probe's cross-partition ship).
	AsyncResolves metrics.Counter

	// retiredShips accumulates the cumulative ship counters of workers
	// merged away, so ShipSnapshot's engine-wide totals never go
	// backward when a partition retires.
	retiredShips struct {
		blocking, cont, konts, overlap metrics.Counter
	}
	// shipRetries / shipRetryWaits count ExecOnOwner fail-back
	// re-resolutions and the subset that slept under backoff (the
	// access-path loops keep their own; ShipSnapshot sums both).
	shipRetries    metrics.Counter
	shipRetryWaits metrics.Counter
	// retiredLocks does the same for the lock-table accounting (workers
	// merged away, tables replaced by Repartition).
	retiredLocks retiredLockStats

	unalignedMu sync.Mutex
	unaligned   map[uint32]map[string]int64 // table -> probed field -> count
	aligned     map[uint32]int64
}

// New builds a DORA engine over every table currently in the storage
// manager's catalog and starts its worker threads.
func New(s *sm.SM, cfg Config) *Dora {
	cfg.fill()
	e := &Dora{
		sm:         s,
		cfg:        cfg,
		routers:    make(map[uint32]*router.Table),
		tableParts: make(map[uint32][]*partition),
		byWorker:   make(map[int]*partition),
		coordSes:   s.Session(-1),
		stopTick:   make(chan struct{}),
		unaligned:  make(map[uint32]map[string]int64),
		aligned:    make(map[uint32]int64),
	}
	if cfg.DebugShipCheck {
		e.shipDet = newShipDetector()
	}
	// Page cleaning for owner-stamped heap pages: the buffer pool's
	// write-back ships snapshot requests through our workers' inboxes
	// instead of latching frames whose owners mutate latch-free (a
	// checkpoint fans them out at once). The engine also owns a flush
	// daemon: eviction refuses to clean dirty stamped frames itself (only
	// the owner's thread may copy them), so SOMETHING must harden them in
	// the background or a pool smaller than the stamped hot set could run
	// out of victims. Embedders may run additional cleaners (doramon,
	// E15); they compose.
	s.Pool.SetSnapshotterAsync(e.snapshotPageAsync)
	e.cleaner = buffer.NewCleaner(s.Pool, buffer.CleanerConfig{Interval: 10 * time.Millisecond})
	e.cleaner.Start()
	for _, tbl := range s.Cat.Tables() {
		lo, hi := int64(0), int64(1)<<31
		if d, ok := cfg.Domains[tbl.Name]; ok {
			lo, hi = d[0], d[1]
		}
		var handles []int
		for i := 0; i < cfg.PartitionsPerTable; i++ {
			p := newPartition(e, tbl, e.nextWorker, false)
			e.byWorker[p.worker] = p
			e.tableParts[tbl.ID] = append(e.tableParts[tbl.ID], p)
			handles = append(handles, p.worker)
			e.nextWorker++
			e.wg.Add(1)
			go p.loop()
		}
		e.routers[tbl.ID] = router.NewUniform(tbl.PartitionField(), lo, hi, handles)
		e.claimAccessPaths(tbl)
	}
	go e.ticker()
	return e
}

// claimAccessPaths hands each partitionable index of tbl to its workers:
// every routing range's mapped key interval becomes a B+tree subtree
// exclusively owned by the range's partition worker, whose descents are
// then latch-free (the PLP/MRBTree access path). Runs at construction,
// before any worker accepts actions, so the trees are quiesced. Indexes
// without a route mapping for the current partitioning field stay on the
// shared latched path.
func (e *Dora) claimAccessPaths(tbl *catalog.Table) {
	e.topoMu.RLock()
	rt := e.routers[tbl.ID]
	var ranges []router.Range
	if rt != nil {
		ranges = rt.Ranges()
	}
	type tgt struct {
		tok   *btree.Owner
		exec  btree.OwnerExec
		async btree.OwnerExecAsync
	}
	targets := make([]tgt, len(ranges))
	for i, r := range ranges {
		if p := e.byWorker[r.Part]; p != nil {
			targets[i] = tgt{p.token, p.accessExec, p.accessExecAsync}
		}
	}
	e.topoMu.RUnlock()
	pf := tbl.PartitionField()
	for _, ix := range tbl.Indexes() {
		pt := ix.Partitioned()
		rr := tbl.RouteFor(ix, pf)
		if pt == nil || rr == nil {
			continue
		}
		claims := make([]btree.ClaimRange, 0, len(ranges))
		for i, r := range ranges {
			if targets[i].tok == nil {
				continue
			}
			keyLo, keyHi := rr(r.Lo, r.Hi)
			claims = append(claims, btree.ClaimRange{
				Lo: keyLo, Hi: keyHi, Owner: targets[i].tok,
				Exec: targets[i].exec, ExecAsync: targets[i].async,
			})
		}
		pt.Claim(claims)
	}
}

// releaseAccessPaths returns every partitioned index of tbl to the shared
// latched path (engine shutdown; re-partitioning on a new field).
func (e *Dora) releaseAccessPaths(tbl *catalog.Table) {
	for _, ix := range tbl.Indexes() {
		if pt := ix.Partitioned(); pt != nil {
			pt.Release()
		}
	}
}

// Name implements engine.Engine.
func (e *Dora) Name() string { return "dora" }

// Exec implements engine.Engine: decompose the flow into actions, route
// phase 0, and wait for the final rendezvous point's verdict.
func (e *Dora) Exec(worker int, flow *xct.Flow) error {
	ch := make(chan error, 1)
	e.ExecAsync(worker, flow, func(err error) { ch <- err })
	return <-ch
}

// ExecAsync runs the flow without blocking the caller: phase 0's actions
// are dispatched fire-and-forget, every later phase (and the commit
// decision) is triggered by an RVP countdown reaching zero, and done
// fires exactly once with the transaction's verdict. Nothing in the
// flow's lifetime parks a goroutine on another partition's work: this is
// the paper's asynchronous action model end to end, with Exec as the
// thin synchronous wrapper clients use. The engine's bookkeeping for the
// transaction is one run (storage transaction, phase 0 and its messages,
// commit completion) plus one rendezvous point per later phase.
//
// done runs on whichever goroutine resolves the transaction: a partition
// worker (the last action's, or the one whose compensation finished the
// rollback), the dispatching goroutine (a flow that failed to route), or
// the goroutine the log starts to complete the commits one flush made
// durable. It must not block: while it runs, that worker's queue or
// every later commit of the same flush waits behind it.
func (e *Dora) ExecAsync(worker int, flow *xct.Flow, done func(error)) {
	if len(flow.Phases) == 0 {
		done(nil)
		return
	}
	// The gate is held shared for the whole transaction and released by
	// whichever goroutine completes it (sync.RWMutex permits that). A
	// panic out of the dispatch must release it too — once, even if a
	// partially dispatched run still completes later — or the next
	// writer (Repartition, Close) would wedge the whole engine.
	var t0 time.Time
	if e.cfg.Tracer.Enabled() {
		t0 = time.Now()
	}
	e.execGate.RLock()
	var run *flowRun
	defer func() {
		if r := recover(); r != nil {
			if run != nil {
				run.releaseGate()
			} else {
				e.execGate.RUnlock()
			}
			panic(r)
		}
	}()
	run = newFlowRun(e, flow, done)
	run.gated.Store(true)
	if tt := e.cfg.Tracer.Begin(run.txn.ID); tt != nil {
		tt.SetStart(t0)
		tt.Span(trace.StageAdmission, worker, t0, time.Since(t0))
		run.txn.Trace = tt
	}
	e.dispatchPhase(run, 0)
}

// dispatchPhase routes every action of a phase and enqueues them
// atomically in canonical partition order — DORA's deadlock-avoidance
// protocol: conflicting actions of different transactions always appear
// in every queue in the same relative order, so local waits form no
// cycles (single-phase conflicts).
func (e *Dora) dispatchPhase(run *flowRun, phase int) {
	actions := run.flow.Phases[phase].Actions
	r := run.phaseRVP(phase, len(actions))
	r.at = time.Now()
	r.env = run.flow.Env(&run.txn, e.coordSes)
	// With phase 0 we also enqueue lock *claims* for every later-phase
	// action whose key is static and aligned, so the transaction's whole
	// (static) lock set enters all queues in one atomic canonical batch —
	// the paper's deadlock-avoidance protocol.
	if phase == 0 && len(run.flow.Phases) > 1 {
		for _, ph := range run.flow.Phases[1:] {
			for _, a := range ph.Actions {
				if a.LateKey {
					continue
				}
				tbl := e.sm.Cat.Table(a.Table)
				if tbl == nil || a.KeyField != tbl.PartitionField() {
					continue
				}
				run.addTable(tbl.ID)
				m := r.newMsg()
				m.act, m.run, m.routeKey, m.claim = a, run, a.Key, true
				r.targets = append(r.targets, dispatchTarget{tbl, e.ownerOf(tbl, a.Key), m})
			}
		}
	}
	// Route every action. Unaligned actions with an async resolver probe
	// their secondary index in continuation-passing form: the dispatch
	// suspends (pending countdown) instead of parking this thread on a
	// cross-partition ship, and the last resolution to land enqueues the
	// phase. Aligned actions and sync-only resolvers keep the inline path.
	// pending starts at 1 for the routing loop itself, so the enqueue
	// cannot fire before every action has been examined.
	r.pending.Store(1)
	for i, a := range actions {
		tbl := e.sm.Cat.Table(a.Table)
		if tbl == nil {
			run.fail(fmt.Errorf("dora: unknown table %q", a.Table))
			r.skip[i] = true
			continue
		}
		run.addTable(tbl.ID)
		pf := tbl.PartitionField()
		if a.KeyField == pf {
			e.noteAligned(tbl.ID)
			r.rks[i] = a.Key
			continue
		}
		e.noteUnaligned(tbl.ID, a.KeyField)
		if a.ResolveAsync != nil {
			r.pending.Add(1)
			e.AsyncResolves.Inc()
			a.ResolveAsync(&r.env, pf, func(v int64, err error) {
				if err != nil {
					run.fail(err)
					r.skip[i] = true
				} else {
					r.rks[i] = v
				}
				r.routed()
			})
			continue
		}
		if a.Resolve == nil {
			run.fail(fmt.Errorf("dora: action on %s keyed by %s needs a resolver", a.Table, a.KeyField))
			r.skip[i] = true
			continue
		}
		v, err := a.Resolve(&r.env, pf)
		if err != nil {
			run.fail(err)
			r.skip[i] = true
			continue
		}
		r.rks[i] = v
	}
	r.routed()
}

// routed counts one routing step of the phase down; the last one
// enqueues the routed actions and reports the ones that failed to route.
func (r *rvp) routed() {
	if r.pending.Add(-1) != 0 {
		return
	}
	run := r.run
	e := run.eng
	failed := 0
	for i, a := range run.flow.Phases[r.phase].Actions {
		if r.skip[i] {
			failed++
			continue
		}
		tbl := e.sm.Cat.Table(a.Table)
		m := r.newMsg()
		m.act, m.run, m.rvp, m.routeKey = a, run, r, r.rks[i]
		r.targets = append(r.targets, dispatchTarget{tbl, e.ownerOf(tbl, r.rks[i]), m})
	}
	e.enqueuePhase(r.targets)
	// Account for actions that never dispatched (resolve failures).
	for i := 0; i < failed; i++ {
		e.report(r, nil) // error already recorded on the run
	}
}

// dispatchTarget is one routed action of a phase and the partition its
// key resolved to.
type dispatchTarget struct {
	tbl *catalog.Table
	p   *partition
	m   *actionMsg
}

// enqueuePhase enqueues a phase's routed actions atomically: it locks
// every distinct target inbox in canonical order (ascending worker id,
// then key) and appends everywhere before unlocking any. A target whose
// inbox closed after it was resolved — a merge retired it in between —
// would swallow its action with no worker left to run it, so then
// nothing is appended: every target is re-resolved (the merge reassigned
// the range before closing) and the enqueue retried.
func (e *Dora) enqueuePhase(targets []dispatchTarget) {
	var lockedBuf [phaseInline]*inbox
	for {
		slices.SortFunc(targets, func(a, b dispatchTarget) int {
			if c := cmp.Compare(a.p.worker, b.p.worker); c != 0 {
				return c
			}
			return cmp.Compare(a.m.routeKey, b.m.routeKey)
		})
		locked := lockedBuf[:0]
		stale := false
		for _, t := range targets {
			if ib := t.p.in; len(locked) == 0 || locked[len(locked)-1] != ib {
				stale = ib.lockForEnqueue() || stale
				locked = append(locked, ib)
			}
		}
		if !stale {
			for _, t := range targets {
				t.p.in.appendLocked(t.m)
			}
		}
		for _, ib := range locked {
			ib.unlockAfterEnqueue()
		}
		if !stale {
			return
		}
		for i := range targets {
			targets[i].p = e.ownerOf(targets[i].tbl, targets[i].m.routeKey)
		}
	}
}

// report is called once per action; the last reporter advances the flow:
// it dispatches the next phase or, after the last phase or a failure,
// decides the transaction's outcome itself (resolve).
func (e *Dora) report(r *rvp, err error) {
	if err != nil {
		r.run.fail(err)
	}
	if r.remaining.Add(-1) != 0 {
		return
	}
	run := r.run
	next := int(r.phase) + 1
	if run.failed() || next >= len(run.flow.Phases) {
		e.resolve(run)
		return
	}
	e.dispatchPhase(run, next)
}

// resolve commits or rolls back a run on the goroutine whose report
// brought its last rendezvous point to zero — usually the partition
// worker that ran the last action (paper §1.1: the last thread to report
// decides). A commit appends the commit record, then broadcasts the
// local-lock release to every partition of every touched table. Commits
// are pipelined: nothing waits for the log sync — the log completes the
// transaction through the run (Complete), unblocking its client, once
// the commit record hardens, while the locks are already released at
// commit-LSN assignment (early lock release; safe because the log
// flushes in LSN order, so no dependent transaction can become durable
// first).
func (e *Dora) resolve(run *flowRun) {
	if ferr := run.firstErr(); ferr != nil {
		// The run still holds its local locks, so no other transaction
		// can touch its data logically — and physically, each
		// compensation ships to the owning partition worker through the
		// partitioned trees' owner executors (thread-to-data is preserved
		// under rollback). The undo chain rides the async path: the final
		// continuation releases the locks and reports the abort.
		e.sm.RollbackAsync(nil, &run.txn, nil, func(rbErr error) {
			if rbErr != nil {
				// The run's keys hold a half-undone state: keep its local
				// locks (waiters time out through sweepTimeouts) and hand
				// the client the typed failure.
				e.RollbackFailures.Inc()
				run.finish(&RollbackError{Txn: run.txn.ID, Err: rbErr})
				return
			}
			e.Aborted.Inc()
			e.broadcastRelease(run)
			run.finish(ferr)
		})
		return
	}
	tt := run.txn.Trace
	e.sm.CommitAsync(&run.txn, run)
	var relAt time.Time
	if tt != nil {
		relAt = time.Now()
	}
	e.broadcastRelease(run)
	if tt != nil {
		tt.Span(trace.StageLockRelease, -1, relAt, time.Since(relAt))
	}
}

// broadcastRelease tells every live partition of the touched tables to
// drop the transaction's local locks. Pushing under the topology lock
// orders each release with the hand-overs: a split enqueues its own
// after adding the new partition (which buffers releases until then),
// and a merge's forwarder passes queued releases on behind its own
// before the merge returns — never behind a hand-over in a queue that
// no longer holds the lock.
func (e *Dora) broadcastRelease(run *flowRun) {
	ids := run.tableIDs()
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	for _, id := range ids {
		for _, p := range e.tableParts[id] {
			p.in.push(&run.rel)
		}
	}
}

// ownerOf returns the partition currently owning routing value v of tbl.
func (e *Dora) ownerOf(tbl *catalog.Table, v int64) *partition {
	e.topoMu.RLock()
	rt := e.routers[tbl.ID]
	var p *partition
	if rt != nil {
		p = e.byWorker[rt.Route(v)]
	}
	e.topoMu.RUnlock()
	return p
}

// Router exposes the routing table for a table (monitor, balancer, tests).
func (e *Dora) Router(name string) *router.Table {
	tbl := e.sm.Cat.Table(name)
	if tbl == nil {
		return nil
	}
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	return e.routers[tbl.ID]
}

// ticker drives timeout sweeps in every partition.
func (e *Dora) ticker() {
	t := time.NewTicker(e.cfg.TickEvery)
	defer t.Stop()
	for {
		select {
		case <-e.stopTick:
			return
		case <-t.C:
			e.topoMu.RLock()
			var parts []*partition
			for _, ps := range e.tableParts {
				parts = append(parts, ps...)
			}
			e.topoMu.RUnlock()
			for _, p := range parts {
				p.in.push(ctlMsg((*partition).sweepTimeouts))
			}
		}
	}
}

func (e *Dora) noteUnaligned(table uint32, field string) {
	e.unalignedMu.Lock()
	m := e.unaligned[table]
	if m == nil {
		m = make(map[string]int64)
		e.unaligned[table] = m
	}
	m[field]++
	e.unalignedMu.Unlock()
}

func (e *Dora) noteAligned(table uint32) {
	e.unalignedMu.Lock()
	e.aligned[table]++
	e.unalignedMu.Unlock()
}

// AlignmentStats reports, per table, aligned dispatches and the per-field
// unaligned dispatch counts since the last reset. The alignment advisor
// (experiment E7) consumes this.
func (e *Dora) AlignmentStats(reset bool) (aligned map[uint32]int64, unaligned map[uint32]map[string]int64) {
	e.unalignedMu.Lock()
	defer e.unalignedMu.Unlock()
	aligned = make(map[uint32]int64, len(e.aligned))
	for k, v := range e.aligned {
		aligned[k] = v
	}
	unaligned = make(map[uint32]map[string]int64, len(e.unaligned))
	for k, m := range e.unaligned {
		cp := make(map[string]int64, len(m))
		for f, v := range m {
			cp[f] = v
		}
		unaligned[k] = cp
	}
	if reset {
		e.aligned = make(map[uint32]int64)
		e.unaligned = make(map[uint32]map[string]int64)
	}
	return aligned, unaligned
}

// Close stops all workers. Pending transactions must have finished.
func (e *Dora) Close() error {
	// Stop the flush daemon BEFORE taking the gate: an in-flight tick may
	// be parked on a snapshot reply while the ship holds the gate shared
	// (waiting on a worker that is still alive at this point); taking the
	// gate first and then waiting for the tick would deadlock.
	if e.cleaner != nil {
		_ = e.cleaner.Close()
	}
	e.execGate.Lock()
	defer e.execGate.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	close(e.stopTick)
	e.topoMu.Lock()
	for _, p := range e.byWorker {
		p.in.close()
	}
	e.topoMu.Unlock()
	e.wg.Wait()
	// Workers are gone: hand the access paths back to the shared latched
	//-path so later engines (or direct sessions) can use the trees.
	// Foreign operations parked in the ship-retry loop fall through here.
	// Heap-page stamps go with them: without workers there is no owner
	// thread to honour the exclusivity promise.
	for _, tbl := range e.sm.Cat.Tables() {
		e.releaseAccessPaths(tbl)
		tbl.Heap.ReleaseStamps()
	}
	return nil
}
