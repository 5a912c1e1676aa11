package sm

import (
	"fmt"
	"sort"
	"sync"

	"dora/internal/storage"
	"dora/internal/tuple"
	"dora/internal/wal"
)

// Replayer applies a primary's log stream into a live storage manager —
// the replica side of log-shipping replication (internal/repl). It is
// recovery's redo path running continuously: every shipped record is
// replayed in LSN order into the heaps, indexes are maintained
// incrementally (recovery rebuilds them at the end; a live replica cannot),
// and the commit horizon advances as KCommit records arrive, so read-only
// sessions on the replica observe exactly the prefix of committed state
// the stream has delivered.
//
// Delivery and application are decoupled so read-only sessions never see
// uncommitted or torn state. A transaction's update records harden — and
// ship — before its commit record (group commit), so applying records as
// they arrive would expose effects of transactions that may yet abort.
// Instead, delivered records queue in arrival (= LSN) order and only the
// transaction-consistent prefix is applied: a record is applied once every
// transaction with a record at or before it in the stream has delivered
// its resolution (KCommit, or KEnd for a rollback). Application therefore
// still runs in strict LSN order — page-LSN monotonicity and slot-
// allocation determinism of the redo path are untouched — but the heap
// only ever holds committed state, and the commit horizon advances when a
// commit record is applied, never merely delivered.
//
// The replayer also keeps recovery's analysis state live: the records of
// every unresolved transaction stay resident so that Promote — which
// turns the replica into a primary at the end of the delivered stream —
// can roll back in-flight losers with CLRs, exactly as restart undo
// would. A commit record is its transaction's last record, so a
// transaction's analysis state goes when its commit is delivered, and
// its resolution marker when the commit applies.
//
// With SM.Options.RedoWorkers > 1 the replayer splits into dispatcher
// and appliers (predo.go): Apply becomes the dispatcher — analysis,
// admission, page attachment, checkpoint handling stay here, in LSN
// order — while the heap redo of physical records fans out to applier
// workers sharded by page id. Appliers capture the pre-redo before image
// of each slot; the dispatcher consumes the completion stream strictly
// in dispatch (= LSN) order and performs everything order-sensitive
// there: incremental index maintenance (a key's index operations can
// span pages — an update relocation deletes on one page and reinserts on
// another — so they cannot ride the page shard), commit-horizon
// advancement, and applied-LSN accounting. Sync is the epoch barrier the
// delivery path places at every extent boundary, so readers admitted
// under the replica's stateMu only ever observe extent-consistent state.
//
// Lock ordering: rp.mu is the OUTER lock; the pool's internal mutexes
// are strictly inner and never held while acquiring rp.mu (appliers
// touch only the task, the heaps, and the catalog — never the maps
// below). Every accessor (AppliedLSN, Warming, OpenTxns, Redone,
// RedoStats) takes rp.mu exactly like Apply, Sync and Promote do; the
// analysis maps (txns, resolved, warm) are mutated by the dispatcher
// only, under rp.mu, so the parallel split never exposes them to an
// applier thread. The latency tracer (internal/trace) adds no edges to
// this order: replay-path spans are pushed onto per-worker lock-free
// rings, so instrumented code may record while holding rp.mu (or the
// replica's stateMu) and the trace aggregator goroutine never acquires
// rp.mu or the pool's inner mutexes.
type Replayer struct {
	sm *SM

	mu        sync.Mutex
	txns      map[uint64]*rtxn
	resolved  map[uint64]bool // txns whose KCommit/KEnd is delivered, not yet applied
	pending   []*wal.Record   // delivered but unapplied records, LSN order
	warm      map[uint64]struct{}
	maxTxn    uint64
	delivered uint64 // end LSN of the last record delivered
	applied   uint64 // end LSN of the last record applied
	redone    int64  // physical operations replayed

	// pool is the partition-parallel applier pool; nil = serial replay.
	// Guarded by mu (created at construction, torn down by Promote/Close).
	pool *redoPool
}

// rtxn is the live analysis state of one unresolved transaction.
type rtxn struct {
	lastLSN uint64
	recs    map[uint64]*wal.Record // the txn's records, for undo chains
}

// NewReplayer creates a replayer over s. Tables must already be
// registered (schema DDL is code, not logged), in the same order as on
// the primary, so table ids line up. When s was opened with RedoWorkers
// > 1 the replayer runs the partition-parallel pipeline; Close tears the
// pool down.
func NewReplayer(s *SM) *Replayer {
	rp := &Replayer{sm: s, txns: make(map[uint64]*rtxn), resolved: make(map[uint64]bool)}
	if s.redoWorkers > 1 {
		rp.pool = newRedoPool(s.redoWorkers, rp.applierApply)
		if s.adaptiveRedo {
			// Grow up to 4x the configured fan-out, shrink down to serial;
			// decisions only ever fire at the Sync barrier below.
			rp.pool.setAdaptive(1, 4*s.redoWorkers)
		}
	}
	return rp
}

// Close stops the applier pool (no-op for a serial replayer). The caller
// must not Apply afterwards.
func (rp *Replayer) Close() {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.closePoolLocked()
}

func (rp *Replayer) closePoolLocked() {
	if rp.pool == nil {
		return
	}
	rp.pool.barrier(nil)
	rp.pool.close()
	rp.pool = nil
}

func (rp *Replayer) ensure(id uint64) *rtxn {
	ts := rp.txns[id]
	if ts == nil {
		ts = &rtxn{recs: make(map[uint64]*wal.Record)}
		rp.txns[id] = ts
	}
	return ts
}

// Apply ingests one delivered record: analysis state updates immediately,
// the record queues for application, and the transaction-consistent
// prefix the delivery unlocked is applied. Records must arrive in LSN
// order with no gaps (the delivery path guarantees it).
func (rp *Replayer) Apply(r *wal.Record) error {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if r.TxnID != 0 {
		if r.TxnID > rp.maxTxn {
			rp.maxTxn = r.TxnID
		}
		switch r.Kind {
		case wal.KCommit, wal.KEnd:
			delete(rp.txns, r.TxnID)
			rp.resolved[r.TxnID] = true
		default:
			ts := rp.ensure(r.TxnID)
			ts.lastLSN = r.LSN
			ts.recs[r.LSN] = r
		}
	}
	rp.delivered = r.LSN + uint64(wal.EncodedSize(r))
	rp.pending = append(rp.pending, r)
	return rp.drainLocked()
}

// drainLocked applies the transaction-consistent prefix of the pending
// queue: it stops at the first record whose transaction has not delivered
// its commit or end yet, so nothing uncommitted — and no partial slice of
// a committed transaction — ever reaches the heap. In parallel mode the
// prefix is dispatched to the applier pool instead, and whatever
// completions are already in — in LSN order — are finished
// opportunistically (the extent-boundary Sync finishes the rest).
func (rp *Replayer) drainLocked() error {
	n := 0
	for ; n < len(rp.pending); n++ {
		r := rp.pending[n]
		if r.TxnID != 0 && !rp.resolved[r.TxnID] {
			break
		}
		var err error
		if rp.pool != nil {
			err = rp.dispatchOneLocked(r)
		} else {
			err = rp.applyOneLocked(r)
		}
		if err != nil {
			rp.pending = rp.pending[n:]
			return err
		}
	}
	if n == len(rp.pending) {
		rp.pending = nil
	} else {
		rp.pending = rp.pending[n:]
	}
	if rp.pool != nil {
		return rp.pool.drainReady(rp.finishOneLocked)
	}
	return nil
}

// Sync is the epoch barrier of parallel replay: it blocks until every
// dispatched record has been applied by its applier AND finished in LSN
// order by the dispatcher (index maintenance, commit horizon, applied
// accounting). The replica's delivery path calls it before releasing
// stateMu at the end of each extent, so read-only sessions only ever
// observe extent-consistent states; Promote calls it before undoing
// losers. Serial replayers return immediately.
func (rp *Replayer) Sync() error {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.syncLocked()
}

func (rp *Replayer) syncLocked() error {
	if rp.pool == nil {
		return nil
	}
	if err := rp.pool.barrier(rp.finishOneLocked); err != nil {
		return err
	}
	// The barrier left every applier queue empty, so the page→applier
	// remap a resize implies cannot reorder any page's records: adaptive
	// sizing decisions are only ever taken here.
	rp.pool.maybeResize()
	return nil
}

// dispatchOneLocked is the dispatcher half of applyOneLocked: checkpoint
// handling and page attachment run here in LSN order (attachment must
// precede the page's task, and the per-worker FIFO orders the task after
// anything already queued for its page), the heap work ships to the
// applier owning the record's page, and everything else rides the
// completion stream so finishOneLocked sees every record in order.
func (rp *Replayer) dispatchOneLocked(r *wal.Record) error {
	s := rp.sm
	if r.Kind == wal.KCheckpoint {
		if ck := uint64(r.Key); ck > s.lastCkptRedo.Load() {
			s.lastCkptRedo.Store(ck)
		}
		if err := s.applyAttachments(r.Redo); err != nil {
			return err
		}
	}
	if err := s.attachOne(r); err != nil {
		return err
	}
	t := &redoTask{rec: r}
	if _, ok := wal.PageKey(r); ok {
		rp.pool.dispatch(t)
	} else {
		rp.pool.dispatchLocal(t)
	}
	return nil
}

// applierApply runs on an applier worker's thread: heap-only redo of one
// physical record plus before/after-image capture for the dispatcher's
// in-order index maintenance. It touches nothing guarded by rp.mu.
func (rp *Replayer) applierApply(t *redoTask) {
	r := t.rec
	kind := physicalKind(r)
	if kind == 0 {
		return
	}
	s := rp.sm
	tbl := s.Cat.TableByID(r.Table)
	if tbl == nil {
		t.err = fmt.Errorf("sm: replay references unknown table %d", r.Table)
		return
	}
	rid := storage.RID{Page: r.Page, Slot: r.Slot}
	switch kind {
	case wal.KInsert:
		if err := tbl.Heap.RedoInsert(rid, r.Redo, r.LSN); err != nil {
			t.err = err
			return
		}
		t.newRec, t.err = tuple.Decode(r.Redo)
	case wal.KUpdate:
		// Pre-redo before image: per-page FIFO makes this exactly the
		// state the serial path would have read at this record's turn.
		// (Get and Decode both copy, so the captured records cannot alias
		// page bytes a later record on this page mutates.)
		t.oldRec, t.newRec, t.err = redoUpdate(tbl.Heap, r)
	case wal.KDelete:
		if img, err := tbl.Heap.Get(rid); err == nil {
			t.oldRec, _ = tuple.Decode(img)
		}
		t.err = tbl.Heap.RedoDelete(rid, r.LSN)
	}
}

// finishOneLocked consumes one completed task in dispatch (= LSN) order
// on the dispatcher, under rp.mu: the order-sensitive remainder of
// applyOneLocked — index maintenance from the applier's captured images,
// commit-horizon advancement, resolution cleanup, applied accounting.
func (rp *Replayer) finishOneLocked(t *redoTask) error {
	r := t.rec
	s := rp.sm
	if kind := physicalKind(r); kind != 0 {
		tbl := s.Cat.TableByID(r.Table)
		if tbl == nil {
			return fmt.Errorf("sm: replay references unknown table %d", r.Table)
		}
		rid := storage.RID{Page: r.Page, Slot: r.Slot}
		switch kind {
		case wal.KInsert:
			_ = tbl.Primary.Tree.PutAs(nil, tbl.Primary.Key(t.newRec), rid.Pack())
			for _, ix := range tbl.Secondaries {
				_ = ix.Tree.PutAs(nil, ix.Key(t.newRec), rid.Pack())
			}
		case wal.KUpdate:
			if t.oldRec != nil {
				for _, ix := range tbl.Secondaries {
					if ok, nk := ix.Key(t.oldRec), ix.Key(t.newRec); ok != nk {
						ix.Tree.DeleteAs(nil, ok)
						_ = ix.Tree.PutAs(nil, nk, rid.Pack())
					}
				}
			}
		case wal.KDelete:
			if t.oldRec != nil {
				tbl.Primary.Tree.DeleteAs(nil, tbl.Primary.Key(t.oldRec))
				for _, ix := range tbl.Secondaries {
					ix.Tree.DeleteAs(nil, ix.Key(t.oldRec))
				}
			}
		}
		rp.redone++
	}
	rp.resolveLocked(r)
	return nil
}

// resolveLocked is the in-order tail of applying r: a commit advances the
// commit horizon, and a commit or end — the last record of its
// transaction — drops the transaction's resolution marker.
func (rp *Replayer) resolveLocked(r *wal.Record) {
	switch r.Kind {
	case wal.KCommit:
		rp.sm.NoteCommitLSN(r.LSN)
		fallthrough
	case wal.KEnd:
		delete(rp.resolved, r.TxnID)
		delete(rp.warm, r.TxnID)
	}
	rp.applied = r.LSN + uint64(wal.EncodedSize(r))
}

// applyOneLocked redoes one record into the live engine, in strict LSN
// order across calls.
func (rp *Replayer) applyOneLocked(r *wal.Record) error {
	s := rp.sm
	if r.Kind == wal.KCheckpoint {
		// The primary's checkpoint raises the replica's truncation floor
		// too (a promoted replica trims from where the primary left off)
		// and re-declares page attachment for streams joined past the
		// records that created the pages.
		if ck := uint64(r.Key); ck > s.lastCkptRedo.Load() {
			s.lastCkptRedo.Store(ck)
		}
		if err := s.applyAttachments(r.Redo); err != nil {
			return err
		}
	}
	if err := s.attachOne(r); err != nil {
		return err
	}
	if err := rp.applyPhysical(r); err != nil {
		return err
	}
	rp.resolveLocked(r)
	return nil
}

// applyPhysical redoes one physical record and maintains the indexes
// incrementally: before images are read from the heap (pre-redo) so
// moved or removed index keys can be fixed, mirroring what the live
// write path does on the primary.
func (rp *Replayer) applyPhysical(r *wal.Record) error {
	kind := physicalKind(r)
	if kind == 0 {
		return nil
	}
	s := rp.sm
	tbl := s.Cat.TableByID(r.Table)
	if tbl == nil {
		return fmt.Errorf("sm: replay references unknown table %d", r.Table)
	}
	rid := storage.RID{Page: r.Page, Slot: r.Slot}
	switch kind {
	case wal.KInsert:
		if err := tbl.Heap.RedoInsert(rid, r.Redo, r.LSN); err != nil {
			return err
		}
		rec, err := tuple.Decode(r.Redo)
		if err != nil {
			return err
		}
		_ = tbl.Primary.Tree.PutAs(nil, tbl.Primary.Key(rec), rid.Pack())
		for _, ix := range tbl.Secondaries {
			_ = ix.Tree.PutAs(nil, ix.Key(rec), rid.Pack())
		}
		rp.redone++

	case wal.KUpdate:
		old, rec, err := redoUpdate(tbl.Heap, r)
		if err != nil {
			return err
		}
		if old != nil {
			for _, ix := range tbl.Secondaries {
				if ok, nk := ix.Key(old), ix.Key(rec); ok != nk {
					ix.Tree.DeleteAs(nil, ok)
					_ = ix.Tree.PutAs(nil, nk, rid.Pack())
				}
			}
		}
		rp.redone++

	case wal.KDelete:
		var old tuple.Record
		if img, err := tbl.Heap.Get(rid); err == nil {
			old, _ = tuple.Decode(img)
		}
		if err := tbl.Heap.RedoDelete(rid, r.LSN); err != nil {
			return err
		}
		if old != nil {
			tbl.Primary.Tree.DeleteAs(nil, tbl.Primary.Key(old))
			for _, ix := range tbl.Secondaries {
				ix.Tree.DeleteAs(nil, ix.Key(old))
			}
		}
		rp.redone++
	}
	return nil
}

// redoUpdate redoes the update patch r and returns the record before and
// after it, for index maintenance: the after image is the pre-redo image
// spliced with the patch, which the redo has just verified. A redo the
// page LSN skips returns two nil records, as does one whose slot cannot
// be read before it (the redo then fails on that slot).
func redoUpdate(h *storage.Heap, r *wal.Record) (old, rec tuple.Record, err error) {
	img, gerr := h.Get(storage.RID{Page: r.Page, Slot: r.Slot})
	applied, err := h.RedoPatch(r)
	if err != nil || !applied || gerr != nil {
		return nil, nil, err
	}
	if old, err = tuple.Decode(img); err != nil {
		return nil, nil, err
	}
	rec, err = tuple.Decode(wal.Splice(nil, img, int(r.Off), r.Redo, len(r.Undo)))
	return old, rec, err
}

// AppliedLSN returns the end LSN of the last record applied — the
// transaction-consistent replayed horizon read-only sessions observe
// (staleness accounting against the primary's shipped horizon). It can
// trail DeliveredLSN by the records of still-unresolved transactions.
func (rp *Replayer) AppliedLSN() uint64 {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.applied
}

// DeliveredLSN returns the end LSN of the last record delivered to the
// replayer (analysis horizon).
func (rp *Replayer) DeliveredLSN() uint64 {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.delivered
}

// Warming returns the number of transactions whose uncommitted effects
// Bootstrap replayed into the heap and whose resolution has not yet been
// applied from the stream. While it is non-zero the heap can hold
// uncommitted ex-primary state, so read-only sessions must be refused.
func (rp *Replayer) Warming() int {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return len(rp.warm)
}

// OpenTxns returns the number of transactions in flight in the stream.
func (rp *Replayer) OpenTxns() int {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return len(rp.txns)
}

// Redone returns the count of physical operations replayed.
func (rp *Replayer) Redone() int64 {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.redone
}

// RedoStats returns the applier pool's monitoring view. A serial replayer
// (or one whose pool Promote retired) reports zero workers.
func (rp *Replayer) RedoStats() RedoStats {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.pool == nil {
		return RedoStats{}
	}
	return rp.pool.stats()
}

// PromoteStats summarizes a completed Promote.
type PromoteStats struct {
	Open    int // transactions open at the end of the stream
	Losers  int // in-flight: rolled back with CLRs
	Undone  int // undo operations applied for losers
	Rebuilt int // index entries rebuilt post-undo
}

// Promote finishes the delivered stream as a restart would, turning the
// replica's state into a primary's: every transaction still open at the
// end of the stream is a loser (a commit record resolves its transaction)
// and is rolled back with CLRs (its commit never hardened on the old
// primary's acked prefix, so its effects must not survive the failover),
// the transaction-id floor rises past every replayed id, and the indexes
// are rebuilt (loser undo writes heaps directly, like recovery's). The
// storage manager must already have an appendable log manager adopted
// (AdoptLog): the promotion's CLRs and end records are the first records
// the new primary writes.
func (rp *Replayer) Promote() (PromoteStats, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	s := rp.sm
	var st PromoteStats
	// Drain the applier pool first: every dispatched record finishes and is
	// consumed in order before the stream's tail is applied, and the pool
	// retires — promotion's loser undo and everything the new primary does
	// afterwards run single-threaded on this side, like restart undo.
	if err := rp.syncLocked(); err != nil {
		return st, err
	}
	rp.closePoolLocked()
	// Delivery ends here: apply everything still queued — including the
	// records of unresolved transactions held back from readers — so the
	// heap reflects the full delivered stream before losers are undone
	// (undo walks before-images that must be present).
	for _, r := range rp.pending {
		if err := rp.applyOneLocked(r); err != nil {
			return st, err
		}
	}
	rp.pending = nil
	rp.warm = nil
	st.Open = len(rp.txns)
	// Descending-id order, like recovery's loser undo: deterministic, so a
	// serial and a parallel replica promoted from the same stream append
	// identical CLR/KEnd sequences and leave byte-identical pages.
	ids := make([]uint64, 0, len(rp.txns))
	for id := range rp.txns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] > ids[j] })
	for _, id := range ids {
		ts := rp.txns[id]
		n, err := s.undoLoser(id, ts.lastLSN, ts.recs)
		if err != nil {
			return st, fmt.Errorf("sm: promote undo txn %d: %w", id, err)
		}
		st.Losers++
		st.Undone += n
		delete(rp.txns, id)
	}
	s.SetTxnIDFloor(rp.maxTxn + 1)
	n, err := s.rebuildIndexes()
	if err != nil {
		return st, err
	}
	st.Rebuilt = n
	if err := s.Log.FlushAll(); err != nil {
		return st, err
	}
	return st, nil
}

// Bootstrap replays the storage manager's existing log content — restart
// recovery minus undo. A rejoining ex-primary runs it after truncating
// its log tail at the promotion point: analysis state lands in the
// replayer (in-flight transactions stay OPEN — the new primary's
// promotion already wrote their CLRs and end records, and those arrive
// through the stream and must find the transactions live), redo honours
// checkpoints with page-LSN idempotence, and the indexes are rebuilt.
//
// The divergence guard: a heap page whose LSN lies at or beyond the
// retained log's end was flushed under discarded (divergent) records.
// Replaying the new primary's stream over such a page would be unsound,
// so Bootstrap refuses — that disk needs a full resync instead.
func (rp *Replayer) Bootstrap() (RecoveryStats, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	s := rp.sm
	var st RecoveryStats
	var recs []*wal.Record
	if err := s.Log.Scan(func(r *wal.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		return st, err
	}
	st.Records = len(recs)
	redoPoint := uint64(0)
	for _, r := range recs {
		if r.Kind == wal.KCheckpoint && uint64(r.Key) > redoPoint {
			redoPoint = uint64(r.Key)
		}
	}
	s.lastCkptRedo.Store(redoPoint)
	for _, r := range recs {
		if r.TxnID != 0 {
			if r.TxnID > rp.maxTxn {
				rp.maxTxn = r.TxnID
			}
			switch r.Kind {
			case wal.KCommit:
				s.NoteCommitLSN(r.LSN)
				delete(rp.txns, r.TxnID)
			case wal.KEnd:
				delete(rp.txns, r.TxnID)
			default:
				ts := rp.ensure(r.TxnID)
				ts.lastLSN = r.LSN
				ts.recs[r.LSN] = r
			}
		}
		if err := s.attachOne(r); err != nil {
			return st, fmt.Errorf("sm: attach lsn %d: %w", r.LSN, err)
		}
		if r.Kind == wal.KCheckpoint {
			if err := s.applyAttachments(r.Redo); err != nil {
				return st, err
			}
		}
		rp.applied = r.LSN + uint64(wal.EncodedSize(r))
		rp.delivered = rp.applied
		if r.LSN < redoPoint {
			continue
		}
		if err := s.redoOne(r); err != nil {
			return st, fmt.Errorf("sm: redo lsn %d: %w", r.LSN, err)
		}
		switch r.Kind {
		case wal.KInsert, wal.KUpdate, wal.KDelete, wal.KCLR:
			st.Redone++
			rp.redone++
		}
	}
	s.SetTxnIDFloor(rp.maxTxn + 1)
	// Unlike live delivery, bootstrap redo applies every retained record,
	// so effects of transactions still in flight at the truncation point
	// are in the heap now. They resolve through the stream (the new
	// primary's promotion wrote their CLRs and end records); until each
	// has, the replica is warming and must refuse reads.
	for id := range rp.txns {
		if rp.warm == nil {
			rp.warm = make(map[uint64]struct{})
		}
		rp.warm[id] = struct{}{}
	}
	if err := rp.checkDivergence(); err != nil {
		return st, err
	}
	n, err := s.rebuildIndexes()
	if err != nil {
		return st, err
	}
	st.Rebuilt = n
	return st, nil
}

// checkDivergence refuses a bootstrap whose disk holds pages flushed
// under log records the retained stream no longer contains.
func (rp *Replayer) checkDivergence() error {
	s := rp.sm
	end := s.Log.Next()
	for _, tbl := range s.Cat.Tables() {
		for _, pid := range tbl.Heap.Pages() {
			f, err := s.Pool.Fetch(pid)
			if err != nil {
				return err
			}
			f.Latch.RLock()
			lsn := f.Page.LSN()
			f.Latch.RUnlock()
			s.Pool.Unpin(f, false)
			if lsn >= end {
				return fmt.Errorf("sm: page %d flushed at LSN %d beyond retained log end %d: divergent disk, full resync required", pid, lsn, end)
			}
		}
	}
	return nil
}
