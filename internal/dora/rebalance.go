package dora

import (
	"fmt"
	"sync"

	"dora/internal/dora/router"
	"dora/internal/metrics"
)

// PartitionStat is a monitoring snapshot of one micro-engine.
type PartitionStat struct {
	Table    string `json:"table"`
	Worker   int    `json:"worker"`
	QueueLen int    `json:"queue_len"`
	// QueueCont is how much of QueueLen is ship traffic (every shipMsg,
	// parked or continuation, and every kontMsg) rather than routed
	// actions and control messages.
	QueueCont int   `json:"queue_cont"`
	Waiting   int64 `json:"waiting"` // actions parked in the local lock table
	Executed  int64 `json:"executed"`
	Waited    int64 `json:"waited"`
	// Shipped counts foreign access-path operations executed on this
	// worker for a parked sender; ContShipped counts
	// continuation-passing ones; KontRun counts continuations delivered
	// back to this worker (completions of foreign operations it
	// suspended on).
	Shipped     int64 `json:"shipped"`
	ContShipped int64 `json:"cont_shipped"`
	KontRun     int64 `json:"kont_run"`
	// Suspended is the number of this worker's actions currently
	// suspended on in-flight foreign operations; OverlapExec counts
	// actions it executed while at least one was suspended — the
	// sender-thread-utilization signal of experiment E14.
	Suspended   int64 `json:"suspended"`
	OverlapExec int64 `json:"overlap_exec"`
	HeldKeys    int64 `json:"held_keys"`
	// Lock-hierarchy accounting (see LockStats for field meanings).
	LockAcquisitions int64 `json:"lock_acquisitions"`
	RangeLocks       int64 `json:"range_locks"`
	Escalations      int64 `json:"escalations"`
	Deescalations    int64 `json:"deescalations"`
	// Ranges is the number of routing ranges assigned to this worker and
	// Width their total value-space width.
	Ranges int   `json:"ranges"`
	Width  int64 `json:"width"`
}

// PartitionStats snapshots every live partition (monitor, balancer).
func (e *Dora) PartitionStats() []PartitionStat {
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	var out []PartitionStat
	for tblID, parts := range e.tableParts {
		rt := e.routers[tblID]
		for _, p := range parts {
			st := PartitionStat{
				Table:       p.tbl.Name,
				Worker:      p.worker,
				QueueLen:    p.queueLen(),
				QueueCont:   p.in.contLength(),
				Waiting:     p.WaitingNow.Load(),
				Executed:    p.Executed.Load(),
				Waited:      p.Waited.Load(),
				Shipped:     p.Shipped.Load(),
				ContShipped: p.ContShipped.Load(),
				KontRun:     p.KontRun.Load(),
				Suspended:   p.SuspendedNow.Load(),
				OverlapExec: p.OverlapExec.Load(),
				HeldKeys:    p.HeldKeys.Load(),

				LockAcquisitions: p.LockAcquisitions.Load(),
				RangeLocks:       p.RangeLocks.Load(),
				Escalations:      p.Escalations.Load(),
				Deescalations:    p.Deescalations.Load(),
			}
			if rt != nil {
				for _, r := range rt.Ranges() {
					if r.Part == p.worker {
						st.Ranges++
						st.Width += r.Hi - r.Lo + 1
					}
				}
			}
			out = append(out, st)
		}
	}
	return out
}

// ShipStats aggregates the engine's ship accounting across all live
// partitions (monitor, experiment E14).
type ShipStats struct {
	// BlockingShips / ContShips are foreign access-path operations
	// executed on owner threads for a parked sender / with a
	// continuation (maintenance and page-snapshot ships count in
	// neither); KontsRun counts delivered continuations.
	BlockingShips int64 `json:"blocking_ships"`
	ContShips     int64 `json:"cont_ships"`
	KontsRun      int64 `json:"konts_run"`
	// SuspendedNow is the engine-wide number of actions currently
	// suspended on in-flight foreign operations; OverlapExec the total
	// actions executed by workers while they had one suspended.
	SuspendedNow int64 `json:"suspended_now"`
	OverlapExec  int64 `json:"overlap_exec"`
	// ContQueue is the current inbox depth contributed by ship traffic
	// (every shipMsg and kontMsg), summed over workers.
	ContQueue int64 `json:"cont_queue"`
	// AsyncResolves counts unaligned-action resolver probes run in
	// continuation-passing form during phase dispatch.
	AsyncResolves int64 `json:"async_resolves"`
	// CyclesDiagnosed / LastCycle report the debug-mode detector's
	// non-fatal cycle diagnoses (continuation mode only; zero/"" when
	// the detector is off or fail-fast).
	CyclesDiagnosed int64  `json:"cycles_diagnosed,omitempty"`
	LastCycle       string `json:"last_cycle,omitempty"`
	// ShipRetries counts fail-back re-resolutions of shipped operations
	// (stale hop or retired owner during rebalancing), summed over the
	// access-path retry loops and ExecOnOwner; ShipRetryWaits is the
	// subset that slept under the capped exponential backoff instead of
	// just yielding.
	ShipRetries    int64 `json:"ship_retries"`
	ShipRetryWaits int64 `json:"ship_retry_waits"`
}

// ShipSnapshot sums ship statistics over every live partition, plus the
// accumulated history of workers merged away (cumulative totals never
// decrease across rebalancing).
func (e *Dora) ShipSnapshot() ShipStats {
	var s ShipStats
	// Retired totals are read under the same topology lock that merges
	// fold them under, so a worker is always counted as exactly one of
	// live or retired.
	e.topoMu.RLock()
	s.BlockingShips = e.retiredShips.blocking.Load()
	s.ContShips = e.retiredShips.cont.Load()
	s.KontsRun = e.retiredShips.konts.Load()
	s.OverlapExec = e.retiredShips.overlap.Load()
	for _, parts := range e.tableParts {
		for _, p := range parts {
			s.BlockingShips += p.Shipped.Load()
			s.ContShips += p.ContShipped.Load()
			s.KontsRun += p.KontRun.Load()
			s.SuspendedNow += p.SuspendedNow.Load()
			s.OverlapExec += p.OverlapExec.Load()
			s.ContQueue += int64(p.in.contLength())
		}
	}
	e.topoMu.RUnlock()
	s.AsyncResolves = e.AsyncResolves.Load()
	if det := e.shipDet; det != nil {
		s.CyclesDiagnosed = det.Cycles.Load()
		s.LastCycle = det.LastCycle()
	}
	s.ShipRetries = e.shipRetries.Load()
	s.ShipRetryWaits = e.shipRetryWaits.Load()
	for _, tbl := range e.sm.Cat.Tables() {
		for _, ix := range tbl.Indexes() {
			if pt := ix.Partitioned(); pt != nil {
				r, w := pt.ShipRetryStats()
				s.ShipRetries += r
				s.ShipRetryWaits += w
			}
		}
	}
	return s
}

// LockStats aggregates the local lock tables' hierarchy accounting
// across all live partitions plus retired history (monitor, E19).
type LockStats struct {
	// Acquisitions counts lock-table grant operations, one per hierarchy
	// node touched — O(1) in a range scan's width.
	Acquisitions int64 `json:"acquisitions"`
	// RangeLocks counts coarse (granule- or partition-level) S/X grants
	// taken by ranged actions.
	RangeLocks int64 `json:"range_locks"`
	// Escalations / Deescalations count lock escalation events and the
	// release of escalated holds.
	Escalations   int64 `json:"escalations"`
	Deescalations int64 `json:"deescalations"`
	// KeyProbes / RangeProbes count maintenance busy-gating probes:
	// per-record KeyBusy checks vs one-intent RangeBusy checks.
	KeyProbes   int64 `json:"key_probes"`
	RangeProbes int64 `json:"range_probes"`
	// ThreadSwitches is always 0: workers are plain goroutines, not
	// locked to OS threads, so there is no migration to count. The field
	// stays for readers of the snapshot's thread_switches series.
	ThreadSwitches int64 `json:"thread_switches"`
}

// retiredLockStats accumulates the lock accounting of tables that went
// away (workers merged, tables cleared by Repartition); atomic because
// the folding happens on worker threads and under the topology lock.
type retiredLockStats struct {
	acq, rng, esc, deesc, keyProbes, rangeProbes metrics.Counter
}

func (r *retiredLockStats) fold(st lockStats) {
	r.acq.Add(st.acquisitions)
	r.rng.Add(st.rangeLocks)
	r.esc.Add(st.escalations)
	r.deesc.Add(st.deescalations)
	r.keyProbes.Add(st.keyProbes)
	r.rangeProbes.Add(st.rangeProbes)
}

// LockSnapshot sums lock-table statistics over every live partition plus
// the retired history (cumulative totals never decrease across
// rebalancing, like ShipSnapshot).
func (e *Dora) LockSnapshot() LockStats {
	var s LockStats
	e.topoMu.RLock()
	s.Acquisitions = e.retiredLocks.acq.Load()
	s.RangeLocks = e.retiredLocks.rng.Load()
	s.Escalations = e.retiredLocks.esc.Load()
	s.Deescalations = e.retiredLocks.deesc.Load()
	s.KeyProbes = e.retiredLocks.keyProbes.Load()
	s.RangeProbes = e.retiredLocks.rangeProbes.Load()
	for _, parts := range e.tableParts {
		for _, p := range parts {
			s.Acquisitions += p.LockAcquisitions.Load()
			s.RangeLocks += p.RangeLocks.Load()
			s.Escalations += p.Escalations.Load()
			s.Deescalations += p.Deescalations.Load()
			s.KeyProbes += p.MaintKeyProbes.Load()
			s.RangeProbes += p.MaintRangeProbes.Load()
		}
	}
	e.topoMu.RUnlock()
	return s
}

// SplitPartition splits the range of worker `from` of table `table` at
// value mid: keys >= mid move to a freshly started micro-engine. The
// migration is safe while transactions run: the new partition buffers
// arriving work until the lock-table state for its range is adopted.
func (e *Dora) SplitPartition(table string, from int, mid int64) (int, error) {
	tbl := e.sm.Cat.Table(table)
	if tbl == nil {
		return 0, fmt.Errorf("dora: unknown table %q", table)
	}
	e.topoMu.Lock()
	src := e.byWorker[from]
	if src == nil || src.tbl != tbl {
		e.topoMu.Unlock()
		return 0, fmt.Errorf("dora: worker %d does not serve %s", from, table)
	}
	rt := e.routers[tbl.ID]
	q := newPartition(e, tbl, e.nextWorker, true /* buffer until adopt */)
	e.nextWorker++
	moved, err := rt.Split(from, mid, q.worker)
	if err != nil {
		e.topoMu.Unlock()
		return 0, err
	}
	e.byWorker[q.worker] = q
	e.tableParts[tbl.ID] = append(e.tableParts[tbl.ID], q)
	e.wg.Add(1)
	go q.loop()
	e.topoMu.Unlock()

	// Tell the source to hand over the migrated range's lock state and
	// index subtrees. New dispatches for the moved range already go to q
	// (buffered there until the adopt message arrives).
	src.in.push(ctlMsg(func(p *partition) { p.splitOut(mid, moved.Hi, q) }))
	e.fireRebalance(table, RebalanceSplit)
	return q.worker, nil
}

// MergePartition retires worker `from` of table `table`, folding its
// ranges and lock-table state into worker `into`. Messages in flight are
// forwarded (ships are failed back and re-resolved); the retired worker
// then exits.
func (e *Dora) MergePartition(table string, from, into int) error {
	tbl := e.sm.Cat.Table(table)
	if tbl == nil {
		return fmt.Errorf("dora: unknown table %q", table)
	}
	e.topoMu.RLock()
	src, dst := e.byWorker[from], e.byWorker[into]
	e.topoMu.RUnlock()
	if src == nil || dst == nil || src.tbl != tbl || dst.tbl != tbl || src == dst {
		return fmt.Errorf("dora: cannot merge %s worker %d into %d", table, from, into)
	}
	// 1. Evacuate lock state first; src enters forwarding mode. Anything
	//    routed to src during the window is forwarded after the adopt
	//    message, preserving order at dst. The hierarchical table moves
	//    wholesale — granules travel with their coarse/escalated holds,
	//    pinned range covers, and parked waiters — so no transaction ever
	//    observes a window where its lock is held by neither table. Order
	//    at the handoff: the evacuating worker extracts from its private
	//    table (latch-free), reassigns subtree claims under the access
	//    path's topology latch, and only then starts forwarding — never
	//    the reverse, so a sender whose parked ship was failed back
	//    re-resolves to claims that already point at the adopter.
	ack := make(chan struct{})
	src.in.push(ctlMsg(func(p *partition) {
		p.evacuate(dst)
		close(ack)
	}))
	<-ack
	// 2. Now repoint the routing rule and drop src from the live set —
	// folding its cumulative ship history into the retired totals under
	// the same topology lock, so no ShipSnapshot ever observes the
	// worker as neither live nor retired (the counters are final: a
	// forwarder executes nothing).
	e.topoMu.Lock()
	e.routers[tbl.ID].Reassign(from, into)
	parts := e.tableParts[tbl.ID]
	for i, p := range parts {
		if p == src {
			e.tableParts[tbl.ID] = append(parts[:i], parts[i+1:]...)
			break
		}
	}
	delete(e.byWorker, from)
	e.retiredShips.blocking.Add(src.Shipped.Load())
	e.retiredShips.cont.Add(src.ContShipped.Load())
	e.retiredShips.konts.Add(src.KontRun.Load())
	e.retiredShips.overlap.Add(src.OverlapExec.Load())
	// The lock gauges are final too: a forwarder acquires nothing. The
	// evacuation already moved the table's state; its accounting stays
	// behind and retires here.
	e.retiredLocks.acq.Add(src.LockAcquisitions.Load())
	e.retiredLocks.rng.Add(src.RangeLocks.Load())
	e.retiredLocks.esc.Add(src.Escalations.Load())
	e.retiredLocks.deesc.Add(src.Deescalations.Load())
	e.retiredLocks.keyProbes.Add(src.MaintKeyProbes.Load())
	e.retiredLocks.rangeProbes.Add(src.MaintRangeProbes.Load())
	e.topoMu.Unlock()
	// 3. Retire the forwarder (checked pushes now fail and re-resolve to
	// dst) and wait until it has forwarded its queue, so a release queued
	// behind the evacuation reaches dst ahead of any later split.
	src.in.close()
	<-src.exited
	e.fireRebalance(table, RebalanceMerge)
	return nil
}

// Repartition changes the partitioning FIELD of a table (the alignment
// advisor's remedy in experiment E7). The engine quiesces: it waits for
// all in-flight transactions, swaps the routing rule to a uniform split
// of the new field's domain over the same workers, and clears the (now
// empty) local lock tables.
func (e *Dora) Repartition(table, field string, lo, hi int64) error {
	tbl := e.sm.Cat.Table(table)
	if tbl == nil {
		return fmt.Errorf("dora: unknown table %q", table)
	}
	if tbl.FieldIndex(field) < 0 {
		return fmt.Errorf("dora: table %s has no field %q", table, field)
	}
	e.execGate.Lock() // waits for every Exec's RLock to drain
	defer e.execGate.Unlock()

	// The access path was partitioned for the OLD field's key mapping:
	// drop the ownership, and with it the heap-page stamps (the pages'
	// record-to-owner assignment is about to change meaning).
	e.releaseAccessPaths(tbl)
	tbl.Heap.ReleaseStamps()

	e.topoMu.Lock()
	parts := append([]*partition(nil), e.tableParts[tbl.ID]...)
	handles := make([]int, len(parts))
	for i, p := range parts {
		handles[i] = p.worker
	}
	nrt := router.NewUniform(field, lo, hi, handles)
	e.routers[tbl.ID].Replace(field, nrt.Ranges())
	tbl.SetPartitionField(field)
	e.topoMu.Unlock()

	// No transactions are active, so the lock tables must be empty;
	// clear them anyway via the owning workers (the table's key space
	// changed meaning).
	var cleared sync.WaitGroup
	cleared.Add(len(parts))
	for _, p := range parts {
		p.in.push(ctlMsg(func(p *partition) {
			p.clearLocks()
			cleared.Done()
		}))
	}
	cleared.Wait()
	// Re-claim, under the same quiesce, every index routable on the NEW
	// field (the identity case: repartitioning back onto a field an
	// index declares a RouteRange for). Indexes not routable on it stay
	// released on the shared latched path. claimAccessPaths filters by
	// the table's current partition field, which is already `field`.
	e.claimAccessPaths(tbl)
	e.fireRebalance(table, RebalanceRepartition)
	return nil
}

// NumPartitions returns the live partition count for a table.
func (e *Dora) NumPartitions(table string) int {
	tbl := e.sm.Cat.Table(table)
	if tbl == nil {
		return 0
	}
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	return len(e.tableParts[tbl.ID])
}
