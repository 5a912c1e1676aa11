package dora

import (
	"runtime"
	"time"

	"dora/internal/catalog"
	"dora/internal/dora/router"
	"dora/internal/sm"
)

// Owner-thread execution for background physical maintenance
// (internal/maint). Maintenance operations — heap-page migration,
// re-stamping, subtree compaction — compose with foreground execution by
// the same rule as every other foreign access: they run ON the owning
// worker's thread, delivered through its inbox, so they can never race
// an aligned action, a latch-free descent, or a lock-table mutation.

// OwnerCtx is what a maintenance operation sees while executing on a
// partition worker's thread. It is valid only for the duration of the
// operation and only on that thread.
type OwnerCtx struct {
	p *partition
}

// Ses returns the worker's session (carrying its ownership token).
func (c *OwnerCtx) Ses() *sm.Session { return c.p.ses }

// Worker returns the executing worker's id.
func (c *OwnerCtx) Worker() int { return c.p.worker }

// Table returns the table this worker serves.
func (c *OwnerCtx) Table() *catalog.Table { return c.p.tbl }

// Ranges returns the routing ranges currently assigned to this worker.
// Read on the owner's thread, so a concurrent split of THIS worker
// cannot invalidate them mid-operation (its hand-over runs here too).
func (c *OwnerCtx) Ranges() []router.Range {
	p := c.p
	p.eng.topoMu.RLock()
	rt := p.eng.routers[p.tbl.ID]
	p.eng.topoMu.RUnlock()
	if rt == nil {
		return nil
	}
	var out []router.Range
	for _, r := range rt.Ranges() {
		if r.Part == p.worker {
			out = append(out, r)
		}
	}
	return out
}

// KeyBusy reports whether the routing value has any lock state (held or
// waited, at any granularity covering it). Maintenance skips records of
// busy values: an in-flight transaction may hold undo entries naming
// their current RIDs, and migration would invalidate them. Safe to read
// here because lock-table mutations happen on this same thread.
func (c *OwnerCtx) KeyBusy(v int64) bool { return c.p.locks.keyBusy(v) }

// RangeBusy reports whether any routing value of [lo, hi] has lock
// state — the one-intent maintenance gate: a whole page's record
// interval is cleared in O(granules-with-state) instead of a KeyBusy
// probe per record. Conservative: coarse coverage may report busy for
// values nothing touches.
func (c *OwnerCtx) RangeBusy(lo, hi int64) bool { return c.p.locks.rangeBusy(lo, hi) }

// PartitionBusy reports whether the partition has any lock state at all
// (held or waiting) — the gate for whole-partition maintenance such as
// subtree compaction.
func (c *OwnerCtx) PartitionBusy() bool {
	return c.p.locks.heldKeys() > 0 || c.p.locks.waitingCount() > 0
}

// QueueLen returns the worker's inbox depth (backpressure signal).
func (c *OwnerCtx) QueueLen() int { return c.p.queueLen() }

// shipRetryPause paces an ExecOnOwner fail-back retry: yield-only for
// the first few rounds, then exponentially growing sleeps capped at
// 1ms — the same discipline as the access-path retry loops, so a
// rebalance storm cannot spin the maintenance daemon (or a worker
// chasing a moved owner) hot.
func (e *Dora) shipRetryPause(tries int) {
	e.shipRetries.Inc()
	if tries < 4 {
		runtime.Gosched()
		return
	}
	e.shipRetryWaits.Inc()
	shift := tries - 4
	if shift > 10 {
		shift = 10
	}
	d := time.Duration(int64(1)<<uint(shift)) * time.Microsecond
	if d > time.Millisecond {
		d = time.Millisecond
	}
	time.Sleep(d)
}

// ExecOnOwner ships fn to the partition worker currently owning routing
// value v of table and blocks until it ran. It holds the engine's
// execution gate shared for the duration, so a quiescing Repartition
// never interleaves with a maintenance operation. Returns false when the
// engine is closed, the table unknown, or the owner could not be reached
// (retired workers are chased through re-resolution a bounded number of
// times). Maintenance operations must not re-enter ExecOnOwner from
// inside fn outside debug experiments: the nested gate acquisition can
// stall behind a waiting quiesce.
func (e *Dora) ExecOnOwner(table string, v int64, fn func(*OwnerCtx)) bool {
	e.execGate.RLock()
	defer e.execGate.RUnlock()
	if e.closed {
		return false
	}
	tbl := e.sm.Cat.Table(table)
	if tbl == nil {
		return false
	}
	for tries := 0; tries < 1024; tries++ {
		p := e.ownerOf(tbl, v)
		if p == nil {
			return false
		}
		if p.shipWait(&shipMsg{fn: p.onOwner(fn)}) {
			return true
		}
		// The worker retired before running fn (split/merge race);
		// re-resolve.
		e.shipRetryPause(tries)
	}
	return false
}

// ExecOnOwnerAsync is ExecOnOwner in continuation-passing style: it
// returns as soon as the operation is enqueued (or resolution failed)
// and done(ok) fires exactly once — inline on the owner's thread right
// after fn ran, since maintenance callers pass no home executor. The
// execution gate is held shared until done fires, so a quiescing
// Repartition still never interleaves with an in-flight maintenance
// operation. The maintenance daemon uses this to fan one operation out
// to several owners concurrently (e.g. compaction across all partitions
// of a table) instead of parking on each round trip in turn.
func (e *Dora) ExecOnOwnerAsync(table string, v int64, fn func(*OwnerCtx), done func(ok bool)) {
	e.execGate.RLock()
	finish := func(ok bool) {
		e.execGate.RUnlock()
		done(ok)
	}
	if e.closed {
		finish(false)
		return
	}
	tbl := e.sm.Cat.Table(table)
	if tbl == nil {
		finish(false)
		return
	}
	var attempt func(tries int)
	attempt = func(tries int) {
		for ; tries < 1024; tries++ {
			p := e.ownerOf(tbl, v)
			if p == nil {
				finish(false)
				return
			}
			tries := tries
			if p.ship(&shipMsg{contReply: contReply{k: func(ok bool) {
				if ok {
					finish(true)
					return
				}
				// The worker retired before running fn (split/merge
				// race); re-resolve from the continuation.
				attempt(tries + 1)
			}}, fn: p.onOwner(fn)}) {
				return
			}
			e.shipRetryPause(tries)
		}
		finish(false)
	}
	attempt(0)
}

// OwnerQueueLen reports the inbox depth of the worker owning routing
// value v of table — the maintenance daemon's backpressure probe — or -1
// when unresolvable.
func (e *Dora) OwnerQueueLen(table string, v int64) int {
	tbl := e.sm.Cat.Table(table)
	if tbl == nil {
		return -1
	}
	p := e.ownerOf(tbl, v)
	if p == nil {
		return -1
	}
	return p.queueLen()
}

// AccessPathClaimed reports whether table's primary index currently has
// owner-claimed subtrees (the precondition for heap maintenance: without
// claims there is no owner thread to stamp pages for).
func (e *Dora) AccessPathClaimed(table string) bool {
	tbl := e.sm.Cat.Table(table)
	if tbl == nil {
		return false
	}
	pt := tbl.Primary.Partitioned()
	return pt != nil && pt.OwnedSubtrees() > 0
}

// RebalanceKind classifies a topology-change event.
type RebalanceKind string

// Rebalance event kinds.
const (
	RebalanceSplit       RebalanceKind = "split"
	RebalanceMerge       RebalanceKind = "merge"
	RebalanceRepartition RebalanceKind = "repartition"
)

// RebalanceEvent notifies the maintenance daemon that a table's routing
// topology changed and its physical layout may have started to decay.
type RebalanceEvent struct {
	Table string
	Kind  RebalanceKind
}

// SetRebalanceHook installs fn to be called (synchronously, so it must
// be cheap — the maintenance daemon just enqueues work) after every
// split, merge and repartition.
func (e *Dora) SetRebalanceHook(fn func(RebalanceEvent)) {
	e.hookMu.Lock()
	e.rebalanceHook = fn
	e.hookMu.Unlock()
}

func (e *Dora) fireRebalance(table string, kind RebalanceKind) {
	e.hookMu.Lock()
	fn := e.rebalanceHook
	e.hookMu.Unlock()
	if fn != nil {
		fn(RebalanceEvent{Table: table, Kind: kind})
	}
}
