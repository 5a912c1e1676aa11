package sm

import (
	"fmt"
	"slices"
	"sync"

	"dora/internal/catalog"
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
// Every record goes through the redo pool (predo.go), which Apply drives
// as its dispatcher: analysis, admission, page attachment and checkpoint
// handling stay here, in LSN order, while the heap redo of physical
// records runs on the applier owning the record's page — or, with
// SM.Options.RedoWorkers ≤ 1, inline. Appliers capture the pre-redo
// before image of each slot; the pool finishes each record strictly in
// dispatch (= LSN) order, and everything order-sensitive happens there:
// incremental index maintenance (a key's index operations can span pages
// — an update relocation deletes on one page and reinserts on another —
// so they cannot ride the page shard), commit-horizon advancement, and
// applied-LSN accounting. Sync is the epoch barrier the delivery path
// places at every extent boundary, so readers admitted under the
// replica's stateMu only ever observe extent-consistent state. The same
// pipeline serves restart: Recover runs it over a private replayer, and
// Bootstrap over this one.
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

	mu sync.Mutex
	// txns holds the records of every unresolved transaction, in LSN
	// order: its undo chain.
	txns      map[uint64][]*wal.Record
	spare     [][]*wal.Record // emptied chains of resolved transactions, for reuse
	resolved  map[uint64]bool // txns whose KCommit/KEnd is delivered, not yet applied
	pending   []*wal.Record   // delivered but unapplied records, LSN order
	warm      map[uint64]struct{}
	maxTxn    uint64
	delivered uint64 // end LSN of the last record delivered
	applied   uint64 // end LSN of the last record applied
	redone    int64  // physical operations replayed

	// pool is the redo pipeline, guarded by mu. Close and Promote retire
	// its appliers; it runs inline from then on.
	pool *redoPool
}

// NewReplayer creates a replayer over s. Tables must already be
// registered (schema DDL is code, not logged), in the same order as on
// the primary, so table ids line up. When s was opened with RedoWorkers
// > 1 the replayer starts that many appliers; Close stops them.
func NewReplayer(s *SM) *Replayer { return newReplayer(s, true) }

// newReplayer creates a replayer whose redo captures the images
// incremental index maintenance needs, or not.
func newReplayer(s *SM, images bool) *Replayer {
	rp := &Replayer{sm: s, txns: make(map[uint64][]*wal.Record), resolved: make(map[uint64]bool)}
	rp.pool = newRedoPool(s, images, rp.finishLocked)
	return rp
}

// Close stops the applier pool; a replayer replays inline afterwards.
func (rp *Replayer) Close() {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.closeLocked()
}

// closeLocked finishes every dispatched record and retires the appliers.
func (rp *Replayer) closeLocked() error {
	err := rp.pool.barrier()
	rp.pool.close()
	return err
}

// analyze folds r into the analysis state: the transaction-id high-water
// mark and the chains of open transactions. A commit or end record — its
// transaction's last — resolves the transaction and drops its chain, and
// analyze reports true for it.
func (rp *Replayer) analyze(r *wal.Record) bool {
	if r.TxnID == 0 {
		return false
	}
	rp.maxTxn = max(rp.maxTxn, r.TxnID)
	chain, open := rp.txns[r.TxnID]
	if r.Kind == wal.KCommit || r.Kind == wal.KEnd {
		if open {
			// Keep the chain's array for the next transaction to open.
			clear(chain)
			rp.spare = append(rp.spare, chain[:0])
			delete(rp.txns, r.TxnID)
		}
		return true
	}
	if !open && len(rp.spare) > 0 {
		chain, rp.spare = rp.spare[len(rp.spare)-1], rp.spare[:len(rp.spare)-1]
	}
	rp.txns[r.TxnID] = append(chain, r)
	return false
}

// Apply ingests one delivered record: analysis state updates immediately,
// the record queues for application, and the transaction-consistent
// prefix the delivery unlocked is applied. Records must arrive in LSN
// order with no gaps (the delivery path guarantees it).
func (rp *Replayer) Apply(r *wal.Record) error {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.analyze(r) {
		rp.resolved[r.TxnID] = true
	}
	rp.delivered = r.LSN + uint64(wal.EncodedSize(r))
	rp.pending = append(rp.pending, r)
	return rp.drainLocked()
}

// drainLocked dispatches the transaction-consistent prefix of the pending
// queue: it stops at the first record whose transaction has not delivered
// its commit or end yet, so nothing uncommitted — and no partial slice of
// a committed transaction — ever reaches the heap. Whatever completions
// are already in are finished, in LSN order (the extent-boundary Sync
// finishes the rest).
func (rp *Replayer) drainLocked() error {
	n := 0
	for ; n < len(rp.pending); n++ {
		r := rp.pending[n]
		if r.TxnID != 0 && !rp.resolved[r.TxnID] {
			break
		}
		if err := rp.dispatchLocked(r, true); err != nil {
			rp.pending = rp.pending[n:]
			return err
		}
	}
	if n == len(rp.pending) {
		rp.pending = nil
	} else {
		rp.pending = rp.pending[n:]
	}
	return rp.pool.drainReady()
}

// Sync is the epoch barrier of replay: it blocks until every dispatched
// record has been applied by its applier AND finished in LSN order
// (index maintenance, commit horizon, applied accounting). The replica's
// delivery path calls it before releasing stateMu at the end of each
// extent, so read-only sessions only ever observe extent-consistent
// states. It returns the pool's first error, for good.
func (rp *Replayer) Sync() error {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.pool.barrier()
}

// dispatchLocked feeds r to the redo pool, redoing its heap effect if
// redo is set. Checkpoint handling and page attachment run here first, in
// LSN order: attachment must precede the page's task, and the
// per-worker FIFO orders the task after anything already queued for its
// page.
func (rp *Replayer) dispatchLocked(r *wal.Record, redo bool) error {
	s := rp.sm
	if r.Kind == wal.KCheckpoint {
		// A checkpoint raises the truncation floor (a promoted replica
		// trims from where the primary left off) and re-declares page
		// attachment for logs that no longer hold the records that
		// created the pages.
		if ck := uint64(r.Key); ck > s.lastCkptRedo.Load() {
			s.lastCkptRedo.Store(ck)
		}
		if err := s.applyAttachments(r.Redo); err != nil {
			return err
		}
	}
	if err := s.attachOne(r); err != nil {
		return fmt.Errorf("sm: attach lsn %d: %w", r.LSN, err)
	}
	if redo && wal.PhysicalKind(r) != 0 {
		rp.redone++
	}
	return rp.pool.dispatch(r, redo)
}

// finishLocked consumes one record in dispatch (= LSN) order on the
// dispatcher, under rp.mu: index maintenance from the images the applier
// captured, then commit-horizon advancement, resolution cleanup and
// applied accounting. A commit advances the commit horizon, and a commit
// or end — the last record of its transaction — drops the transaction's
// resolution marker.
func (rp *Replayer) finishLocked(t *redoTask) {
	r := t.rec
	if t.oldRec != nil || t.newRec != nil {
		tbl := rp.sm.Cat.TableByID(r.Table)
		rid := storage.RID{Page: r.Page, Slot: r.Slot}.Pack()
		fixIndex(tbl.Primary, rid, t.oldRec, t.newRec)
		for _, ix := range tbl.Secondaries {
			fixIndex(ix, rid, t.oldRec, t.newRec)
		}
	}
	switch r.Kind {
	case wal.KCommit:
		rp.sm.NoteCommitLSN(r.LSN)
		fallthrough
	case wal.KEnd:
		delete(rp.resolved, r.TxnID)
		delete(rp.warm, r.TxnID)
	}
	rp.applied = t.end()
}

// fixIndex moves ix's entry for a redone record from the key of its
// before image to the key of its after image, mirroring what the live
// write path does on the primary. A nil image has no key: an insert has
// no before image, a delete no after image.
func fixIndex(ix *catalog.Index, rid uint64, old, rec tuple.Record) {
	if old != nil && rec != nil && ix.Key(old) == ix.Key(rec) {
		return
	}
	if old != nil {
		ix.Tree.DeleteAs(nil, ix.Key(old))
	}
	if rec != nil {
		_ = ix.Tree.PutAs(nil, ix.Key(rec), rid)
	}
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

// RedoStats returns the applier pool's monitoring view. An inline
// replayer (or one whose appliers Promote retired) reports zero workers.
func (rp *Replayer) RedoStats() RedoStats {
	rp.mu.Lock()
	defer rp.mu.Unlock()
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
	// Retire the appliers first: every dispatched record finishes in
	// order, and the stream's tail, loser undo and everything the new
	// primary does afterwards run on this side, like restart undo.
	if err := rp.closeLocked(); err != nil {
		return st, err
	}
	// Delivery ends here: apply everything still queued — including the
	// records of unresolved transactions held back from readers — so the
	// heap reflects the full delivered stream before losers are undone
	// (undo walks before-images that must be present).
	for _, r := range rp.pending {
		if err := rp.dispatchLocked(r, true); err != nil {
			return st, err
		}
	}
	rp.pending = nil
	rp.warm = nil
	st.Open = len(rp.txns)
	var err error
	if st.Losers, st.Undone, err = rp.undoLosers(); err != nil {
		return st, err
	}
	s.SetTxnIDFloor(rp.maxTxn + 1)
	if st.Rebuilt, err = s.rebuildIndexes(); err != nil {
		return st, err
	}
	return st, s.Log.FlushAll()
}

// undoLosers rolls back every transaction still open, in descending id
// order: deterministic, so two undos of the same log — restart or
// promotion, inline or with appliers — append identical CLR/KEnd
// sequences and leave byte-identical pages. Callers hold rp.mu, or own
// the replayer outright (Recover).
func (rp *Replayer) undoLosers() (losers, undone int, err error) {
	ids := make([]uint64, 0, len(rp.txns))
	for id := range rp.txns {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for i := len(ids) - 1; i >= 0; i-- {
		id := ids[i]
		n, err := rp.sm.undoLoser(id, rp.txns[id])
		if err != nil {
			return losers, undone, fmt.Errorf("sm: undo txn %d: %w", id, err)
		}
		losers++
		undone += n
		delete(rp.txns, id)
	}
	return losers, undone, nil
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
	// The indexes are rebuilt below, so this redo captures no images.
	rp.pool.images = false
	st, err := rp.replayLog()
	rp.pool.images = true
	if err != nil {
		return st, err
	}
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
	st.Rebuilt, err = rp.sm.rebuildIndexes()
	return st, err
}

// replayLog is the restart pipeline Recover and Bootstrap share: it scans
// the storage manager's log, folds each record into the analysis state,
// feeds it through the redo pool and returns at the barrier. Records
// below the latest checkpoint's redo point only attach their pages:
// their heap effects reached disk with that checkpoint. Transactions
// still open at the end of the log stay in rp.txns, and the
// transaction-id floor rises past every id seen. Callers hold rp.mu, or
// own the replayer outright (Recover).
func (rp *Replayer) replayLog() (RecoveryStats, error) {
	s := rp.sm
	var st RecoveryStats
	var recs []*wal.Record
	var redoPoint uint64
	if err := s.Log.Scan(func(r *wal.Record) error {
		recs = append(recs, r)
		if r.Kind == wal.KCheckpoint {
			redoPoint = max(redoPoint, uint64(r.Key))
		}
		return nil
	}); err != nil {
		return st, err
	}
	st.Records = len(recs)
	redone := rp.redone
	var err error
	for _, r := range recs {
		rp.analyze(r)
		if err = rp.dispatchLocked(r, r.LSN >= redoPoint); err != nil {
			break
		}
	}
	if berr := rp.pool.barrier(); err == nil {
		err = berr
	}
	st.Redone = int(rp.redone - redone)
	rp.delivered = rp.applied
	s.SetTxnIDFloor(rp.maxTxn + 1)
	return st, err
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
