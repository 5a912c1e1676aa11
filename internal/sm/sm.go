// Package sm is the storage-manager facade — the role Shore-MT plays for
// the paper's prototype. It wires the buffer pool, heaps, B+tree access
// methods, write-ahead log and crash recovery into a single substrate
// that both execution engines run on.
//
// The storage manager is deliberately lock-free at this layer: it
// provides atomic, latched, logged *operations* (read / insert / update /
// delete by key), while *isolation* between transactions is the engine's
// job — hierarchical locks in the conventional engine, partition
// ownership plus local lock tables in DORA. This split mirrors the paper:
// DORA "bypasses the centralized lock manager" but reuses everything else
// in the storage manager unchanged.
package sm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/btree"
	"dora/internal/buffer"
	"dora/internal/catalog"
	"dora/internal/metrics"
	"dora/internal/storage"
	"dora/internal/trace"
	"dora/internal/tuple"
	"dora/internal/tx"
	"dora/internal/wal"
	"dora/internal/wal/clog"
)

// ErrNotFound reports a missing key.
var ErrNotFound = errors.New("sm: key not found")

// ErrDuplicate reports a primary-key violation.
var ErrDuplicate = errors.New("sm: duplicate key")

// Options configures Open.
type Options struct {
	// Frames is the buffer-pool size in pages (default 4096).
	Frames int
	// Disk backs the pages (default: in-memory).
	Disk buffer.Disk
	// LogStore backs the WAL (default: in-memory).
	LogStore wal.Store
	// Log, when non-nil, is used as the log manager directly and LogStore
	// is ignored. Replication injects a replica's read-only
	// delivered-stream manager this way (internal/repl); tests inject the
	// single-mutex reference manager (wal.New) the same way.
	Log wal.Manager
	// CS receives critical-section accounting (optional).
	CS *metrics.CriticalSectionStats
	// Tracer receives record-access events (optional, experiment E1).
	Tracer *metrics.AccessTracer
	// RedoWorkers selects partition-parallel redo for the backward paths:
	// restart recovery (Recover) and replica streaming apply (Replayer)
	// fan physical records out to this many applier workers sharded by
	// page id. 0 or 1 keeps the classic serial redo.
	RedoWorkers int
	// AdaptiveRedo lets the parallel-redo pool grow and shrink between
	// extent barriers from observed per-applier queue depth (RedoWorkers
	// becomes the starting size).
	AdaptiveRedo bool
	// Spans, when non-nil, is the end-to-end latency tracer: the commit
	// pipeline (log append, flush wait, ack wait) records spans for
	// sampled transactions, and the clog log manager records its
	// reserve/fill stages at the same sampling rate.
	Spans *trace.Tracer
}

// SM is an open storage manager instance.
type SM struct {
	Disk   buffer.Disk
	Pool   *buffer.Pool
	Log    wal.Manager
	Cat    *catalog.Catalog
	CS     *metrics.CriticalSectionStats
	Tracer *metrics.AccessTracer

	ids tx.IDGen

	// lastCommit is the highest commit-record LSN assigned so far. Under
	// early lock release a read-only transaction may have observed writes
	// whose commit record is not yet durable; acknowledging it must wait
	// for this horizon (the ELR read-only caveat). On a replica it is
	// advanced by replay (NoteCommitLSN) — the replayed-commit horizon.
	lastCommit atomic.Uint64

	// commitGate, when installed, interposes between a commit record's
	// local durability and the transaction's completion: semi-sync
	// replication holds the acknowledgement here until enough replicas
	// acked the commit LSN (internal/repl.Shipper.Gate).
	commitGate atomic.Pointer[CommitGate]

	// activeMu/active track in-flight transactions so the log-truncation
	// horizon can retain the oldest active transaction's chain.
	activeMu sync.Mutex
	active   map[*tx.Txn]struct{}

	// lastCkptRedo is the redo point of the latest hardened checkpoint —
	// the analysis/redo floor a truncated log must preserve.
	lastCkptRedo atomic.Uint64

	// redoWorkers is Options.RedoWorkers: the applier fan-out of the
	// partition-parallel redo pipeline (0/1 = serial); adaptiveRedo
	// enables queue-depth-driven pool resizing between extent barriers.
	redoWorkers  int
	adaptiveRedo bool

	// spans is Options.Spans: the end-to-end latency tracer (nil = off).
	spans *trace.Tracer

	// Commits and Aborts count finished transactions.
	Commits metrics.Counter
	Aborts  metrics.Counter
}

// CommitGate delays a commit acknowledgement past local durability: it is
// called with the hardened commit-record LSN and must invoke done exactly
// once when the configured replication rule is satisfied (immediately,
// for async replication).
type CommitGate func(lsn uint64, done func(error))

// SetCommitGate installs (or, with nil, removes) the commit gate. Commits
// in flight keep whichever gate they loaded.
func (s *SM) SetCommitGate(g CommitGate) {
	if g == nil {
		s.commitGate.Store(nil)
		return
	}
	s.commitGate.Store(&g)
}

// Open creates a storage manager over the given (or default in-memory)
// disk and log store. Call Recover afterwards when reopening after a
// crash.
func Open(opt Options) (*SM, error) {
	if opt.Frames <= 0 {
		opt.Frames = 4096
	}
	if opt.Disk == nil {
		opt.Disk = buffer.NewMemDisk()
	}
	if opt.LogStore == nil {
		opt.LogStore = wal.NewMemStore()
	}
	log := opt.Log
	if log == nil {
		cl, err := clog.New(opt.LogStore, opt.CS)
		if err != nil {
			return nil, err
		}
		log = cl
	}
	pool := buffer.NewPool(opt.Frames, opt.Disk, log)
	if opt.CS != nil {
		pool.SetStats(opt.CS)
	}
	if cl, ok := log.(*clog.Log); ok && opt.Spans != nil {
		cl.SetTracer(opt.Spans)
	}
	return &SM{
		Disk:         opt.Disk,
		Pool:         pool,
		Log:          log,
		Cat:          catalog.New(),
		CS:           opt.CS,
		Tracer:       opt.Tracer,
		active:       make(map[*tx.Txn]struct{}),
		redoWorkers:  opt.RedoWorkers,
		adaptiveRedo: opt.AdaptiveRedo,
		spans:        opt.Spans,
	}, nil
}

// RedoWorkers returns the configured applier fan-out of the partition-
// parallel redo pipeline (0/1 = serial).
func (s *SM) RedoWorkers() int { return s.redoWorkers }

// AdoptLog swaps the storage manager's log manager and rewires the buffer
// pool's write-ahead rule to it. The caller must quiesce appenders first;
// replication uses it to flip a replica between its read-only delivered-
// stream manager and an appendable one at promotion.
func (s *SM) AdoptLog(m wal.Manager) {
	s.Log = m
	s.Pool.SetLogForcer(m)
}

// LastCommitLSN returns the highest commit-record LSN assigned so far —
// on a replica, the replayed-commit horizon (staleness accounting).
func (s *SM) LastCommitLSN() uint64 { return s.lastCommit.Load() }

// NoteCommitLSN advances the commit horizon to lsn if it is higher;
// replication's replay path calls it for every replayed commit record.
func (s *SM) NoteCommitLSN(lsn uint64) {
	for {
		cur := s.lastCommit.Load()
		if cur >= lsn || s.lastCommit.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// register adds t to the active-transaction registry.
func (s *SM) register(t *tx.Txn) {
	s.activeMu.Lock()
	s.active[t] = struct{}{}
	s.activeMu.Unlock()
}

// deregister removes t from the active-transaction registry; called once
// the transaction can no longer pin the truncation horizon.
func (s *SM) deregister(t *tx.Txn) {
	s.activeMu.Lock()
	delete(s.active, t)
	s.activeMu.Unlock()
}

// OldestActiveLSN returns the lowest first-record LSN among in-flight
// transactions, or 0 when none has logged anything.
func (s *SM) OldestActiveLSN() uint64 {
	s.activeMu.Lock()
	defer s.activeMu.Unlock()
	oldest := uint64(0)
	for t := range s.active {
		if f := t.FirstLSN(); f != 0 && (oldest == 0 || f < oldest) {
			oldest = f
		}
	}
	return oldest
}

// IndexSpec declares a secondary index in a TableSpec.
type IndexSpec struct {
	Name   string
	Fields []string
	Key    catalog.KeyFunc
	// RouteRange, when non-nil, maps an interval of the table's
	// partitioning-field values to the inclusive interval of this index's
	// keys — the declaration that makes the index physiologically
	// partitionable (it gets a per-partition subtree tree that DORA
	// claims per worker; see internal/btree's PartitionedTree).
	RouteRange func(routeLo, routeHi int64) (keyLo, keyHi int64)
}

// TableSpec declares a table for CreateTable.
type TableSpec struct {
	Name   string
	Fields []catalog.Field
	// KeyFields names the primary-key columns (metadata for the designer).
	KeyFields []string
	// Key extracts the packed primary key from a record.
	Key catalog.KeyFunc
	// PartitionField is the column DORA initially routes on (defaults to
	// the first key field).
	PartitionField string
	// RouteRange maps partitioning-field intervals to primary-key
	// intervals (see IndexSpec.RouteRange). When nil and the primary key
	// is exactly the partitioning field, the identity mapping is assumed
	// and the primary index is provisioned partitioned automatically.
	RouteRange  func(routeLo, routeHi int64) (keyLo, keyHi int64)
	Secondaries []IndexSpec
	// FieldMaps declares interval bijections between routable fields, so
	// indexes stay claimable after re-partitioning onto a field their
	// RouteRange was not declared for (see catalog.Table.RouteFor).
	FieldMaps []catalog.FieldMap
}

// newIndexTree provisions an index structure: partitioned when the index
// is declared routable on the partitioning field, shared latched
// otherwise. Also used by recovery to rebuild indexes with their original
// shape.
func newIndexTree(cs *metrics.CriticalSectionStats, partitioned bool) btree.AccessMethod {
	if partitioned {
		return btree.NewPartitioned(cs)
	}
	return btree.New(cs)
}

// CreateTable registers a new table with its heap and indexes.
func (s *SM) CreateTable(spec TableSpec) (*catalog.Table, error) {
	if spec.Key == nil {
		return nil, fmt.Errorf("sm: table %q needs a primary key function", spec.Name)
	}
	pf := spec.PartitionField
	if pf == "" && len(spec.KeyFields) > 0 {
		pf = spec.KeyFields[0]
	}
	// A primary key that IS the partitioning field partitions trivially.
	if spec.RouteRange == nil && pf != "" && len(spec.KeyFields) == 1 && spec.KeyFields[0] == pf {
		spec.RouteRange = func(lo, hi int64) (int64, int64) { return lo, hi }
	}
	t := &catalog.Table{
		Name:      spec.Name,
		Fields:    spec.Fields,
		FieldMaps: spec.FieldMaps,
		Heap:      storage.NewHeap(s.Pool),
		Primary: &catalog.Index{
			Name:       spec.Name + "_pk",
			Fields:     spec.KeyFields,
			Key:        spec.Key,
			Tree:       newIndexTree(s.CS, spec.RouteRange != nil),
			RouteRange: spec.RouteRange,
			RouteField: pf,
		},
	}
	t.SetPartitionField(pf)
	for _, is := range spec.Secondaries {
		t.Secondaries = append(t.Secondaries, &catalog.Index{
			Name:       is.Name,
			Fields:     is.Fields,
			Key:        is.Key,
			Tree:       newIndexTree(s.CS, is.RouteRange != nil),
			RouteRange: is.RouteRange,
			RouteField: pf,
		})
	}
	return s.Cat.AddTable(t)
}

// Begin starts a transaction.
func (s *SM) Begin() *tx.Txn {
	t := new(tx.Txn)
	s.BeginInto(t)
	return t
}

// BeginInto starts a transaction in t, a zero Txn the caller owns: an
// engine embeds the storage transaction in its own per-transaction state
// so starting one allocates nothing.
func (s *SM) BeginInto(t *tx.Txn) {
	s.ids.Start(t)
	s.register(t)
}

// Session returns an access handle tagged with a worker id for the
// access tracer; engines create one per worker thread.
func (s *SM) Session(worker int) *Session { return &Session{sm: s, worker: worker} }

// OwnedSession returns a session additionally carrying an access-path
// ownership token: index operations it performs take the latch-free path
// through partitioned-subtree ranges claimed for that token. Only DORA
// partition workers create these — the token, not the worker id, is what
// the partitioned trees trust.
func (s *SM) OwnedSession(worker int, owner *btree.Owner) *Session {
	return &Session{sm: s, worker: worker, owner: owner}
}

// Commit makes t durable: a commit record is appended and the log forced
// (group commit batches concurrent forcers). The commit record is the
// transaction's last: no end record follows it.
func (s *SM) Commit(t *tx.Txn) error {
	ch := make(chan error, 1)
	s.CommitAsync(t, tx.CompletionFunc(func(err error) { ch <- err }))
	return <-ch
}

// CommitAsync appends t's commit record and schedules the rest of commit
// — status flip, durability notification — for when the log hardens it
// (FinishCommit). The finish appends nothing: a hardened commit record
// resolves the transaction. done.Complete is invoked exactly once: inline
// if the log manager only supports synchronous forces (or t is
// read-only), otherwise from the log's completion goroutine (flush
// pipelining: the worker never blocks on the sync). Without a tracer
// sample or a commit gate nothing is allocated: t itself waits on the
// force and reaches FinishCommit, which calls done.
//
// When CommitAsync returns, t's commit LSN is assigned, and engines may
// release t's locks immediately (early lock release). That is safe
// because the log hardens in LSN order: any transaction that read t's
// writes logs its own commit record after t's, so it cannot become
// durable — and its client cannot be acknowledged — before t is.
func (s *SM) CommitAsync(t *tx.Txn, done tx.Completion) {
	t.SetCommit(s, done)
	if t.LastLSN() == 0 {
		s.commitReadOnly(t)
		return
	}
	tt := t.Trace
	var appendAt time.Time
	if tt != nil {
		appendAt = time.Now()
	}
	lsn, _ := t.Append(s.Log, wal.Record{Kind: wal.KCommit, TxnID: t.ID})
	if tt != nil {
		tt.Span(trace.StageLogAppend, -1, appendAt, time.Since(appendAt))
	}
	for {
		cur := s.lastCommit.Load()
		if cur >= lsn || s.lastCommit.CompareAndSwap(cur, lsn) {
			break
		}
	}
	// Untraced and ungated, t itself waits on the force; a commit gate
	// or a trace sample wraps it in closures.
	var w wal.Waiter = t
	if gp := s.commitGate.Load(); gp != nil {
		gate := *gp
		finish := func(err error) { s.FinishCommit(t, err) }
		// The gate runs between local durability and completion: the
		// commit record hardened here, but the acknowledgement waits for
		// the replication rule.
		w = wal.WaiterFunc(func(err error) {
			if err != nil {
				finish(err)
				return
			}
			if tt == nil {
				gate(lsn, finish)
				return
			}
			gateAt := time.Now()
			gate(lsn, func(err error) {
				tt.Span(trace.StageAckWait, -1, gateAt, time.Since(gateAt))
				finish(err)
			})
		})
	}
	if af, ok := s.Log.(wal.AsyncForcer); ok {
		if tt != nil {
			// The flush-wait span runs from the force request to the
			// flush daemon hardening the commit LSN; the ack-wait span
			// (inside the gate's waiter) starts only after it ends.
			flushAt := time.Now()
			inner := w
			w = wal.WaiterFunc(func(err error) {
				tt.Span(trace.StageFlushWait, -1, flushAt, time.Since(flushAt))
				inner.Forced(err)
			})
		}
		af.ForceAsync(lsn, w)
		return
	}
	w.Forced(s.Log.Force(lsn))
}

// FinishCommit is a commit's last step, reached through t (tx.Finisher)
// once its force returned, or with the read-only horizon's outcome: it
// drops t from the active registry and, on success, marks it committed
// and counts it, then hands the verdict to the completion CommitAsync
// was given.
func (s *SM) FinishCommit(t *tx.Txn, err error) {
	s.deregister(t)
	if err == nil {
		t.SetStatus(tx.Committed)
		s.Commits.Inc()
	}
	t.CommitDone().Complete(err)
}

// commitReadOnly completes a transaction that wrote nothing. With a
// synchronous log manager the locks of every transaction it read from
// were released only after durability, so it completes immediately. With
// an asynchronous one, early lock release means it may have observed
// writes whose commit records are still in flight — it must not be
// acknowledged before the highest assigned commit LSN hardens, or a
// crash could erase state a client was told it read.
func (s *SM) commitReadOnly(t *tx.Txn) {
	if af, ok := s.Log.(wal.AsyncForcer); ok {
		if target := s.lastCommit.Load(); target != 0 && s.Log.Durable() <= target {
			af.ForceAsync(target, t)
			return
		}
	}
	s.FinishCommit(t, nil)
}

// Rollback undoes every operation of t (in reverse), logging CLRs, and
// marks it aborted. The conventional engine calls this directly; DORA
// routes the per-entry ApplyUndo calls through the owning partitions and
// then calls FinishRollback.
func (s *SM) Rollback(t *tx.Txn) error { return s.RollbackAs(nil, t) }

// RollbackAs is Rollback for a caller already executing ON an owning
// worker's thread (background maintenance): compensation for keys that
// token owns runs inline instead of shipping — a ship from the owner's
// own thread to its own inbox would wait on itself forever.
func (s *SM) RollbackAs(caller *btree.Owner, t *tx.Txn) error {
	if t.LastLSN() != 0 {
		t.Append(s.Log, wal.Record{Kind: wal.KAbort, TxnID: t.ID})
	}
	for _, u := range t.TakeUndos() {
		if err := s.ApplyUndoAs(caller, t, u); err != nil {
			return fmt.Errorf("sm: rollback txn %d: %w", t.ID, err)
		}
	}
	return s.FinishRollback(t)
}

// FinishRollback logs the end record after all undo entries have been
// applied (by Rollback, or by DORA's partition-routed compensation).
func (s *SM) FinishRollback(t *tx.Txn) error {
	if t.LastLSN() != 0 {
		t.Append(s.Log, wal.Record{Kind: wal.KEnd, TxnID: t.ID})
	}
	t.SetStatus(tx.Aborted)
	s.deregister(t)
	s.Aborts.Inc()
	return nil
}

// ApplyUndo compensates one logical undo entry, logging a CLR. Exposed so
// the DORA engine can execute compensation on the partition that owns the
// data (thread-to-data is preserved under rollback): the whole entry —
// heap access included, which matters once heap pages carry owner stamps
// — ships to the owning worker's thread through the primary index's
// ExecAt, instead of only the individual index operations.
func (s *SM) ApplyUndo(t *tx.Txn, u tx.Undo) error { return s.ApplyUndoAs(nil, t, u) }

// ApplyUndoAs is ApplyUndo with the caller's ownership token: when the
// caller already is the owning worker, the compensation runs inline on
// its thread (see RollbackAs).
func (s *SM) ApplyUndoAs(caller *btree.Owner, t *tx.Txn, u tx.Undo) (err error) {
	tbl := s.Cat.TableByID(u.Table)
	if tbl == nil {
		return fmt.Errorf("sm: undo references unknown table %d", u.Table)
	}
	tbl.Primary.Tree.ExecAt(caller, u.Key, func(tok *btree.Owner) {
		err = s.applyUndoAt(tok, t, tbl, u)
	})
	return err
}

func (s *SM) applyUndoAt(tok *btree.Owner, t *tx.Txn, tbl *catalog.Table, u tx.Undo) error {
	switch u.Kind {
	case tx.UInsert:
		// Compensate an insert: remove the record and its index entries.
		img, err := tbl.Heap.GetOwned(tok, u.RID)
		if err != nil {
			return err
		}
		rec, err := tuple.Decode(img)
		if err != nil {
			return err
		}
		err = tbl.Heap.DeleteOwnedWith(tok, u.RID, func(before []byte) uint64 {
			lsn, _ := t.Append(s.Log, wal.Record{
				Kind: wal.KCLR, Sub: wal.KDelete, TxnID: t.ID,
				UndoNext: u.PrevLSN, Table: u.Table,
				Page: u.RID.Page, Slot: u.RID.Slot, Key: u.Key,
			})
			return lsn
		})
		if err != nil {
			return err
		}
		dropEntry(tok, tbl.Primary.Tree, u.Key, u.RID)
		for _, ix := range tbl.Secondaries {
			dropEntry(tok, ix.Tree, ix.Key(rec), u.RID)
		}
		return nil

	case tx.UUpdate:
		// Restore the before image; fix secondary entries if keys moved.
		curImg, err := tbl.Heap.GetOwned(tok, u.RID)
		if err != nil {
			return err
		}
		cur, err := tuple.Decode(curImg)
		if err != nil {
			return err
		}
		old, err := tuple.Decode(u.Before)
		if err != nil {
			return err
		}
		err = tbl.Heap.UpdateOwnedWith(tok, u.RID, u.Before, func(before []byte) uint64 {
			off, redo, undo := wal.Diff(before, u.Before)
			lsn, _ := t.Append(s.Log, wal.Record{
				Kind: wal.KCLR, Sub: wal.KUpdate, TxnID: t.ID,
				UndoNext: u.PrevLSN, Table: u.Table,
				Page: u.RID.Page, Slot: u.RID.Slot, Key: u.Key,
				Off: uint16(off), Redo: redo, Undo: undo,
			})
			return lsn
		})
		if err != nil {
			return err
		}
		for _, ix := range tbl.Secondaries {
			ok, nk := ix.Key(cur), ix.Key(old)
			if ok != nk {
				dropEntry(tok, ix.Tree, ok, u.RID)
				_ = ix.Tree.PutAs(tok, nk, u.RID.Pack())
			}
		}
		return nil

	case tx.UDelete:
		// Re-insert the deleted record (possibly at a new RID).
		old, err := tuple.Decode(u.Before)
		if err != nil {
			return err
		}
		rid, err := tbl.Heap.InsertOwnedWith(tok, 0, u.Before, func(rid storage.RID) uint64 {
			lsn, _ := t.Append(s.Log, wal.Record{
				Kind: wal.KCLR, Sub: wal.KInsert, TxnID: t.ID,
				UndoNext: u.PrevLSN, Table: u.Table,
				Page: rid.Page, Slot: rid.Slot, Key: u.Key,
				Redo: u.Before,
			})
			return lsn
		})
		if err != nil {
			return err
		}
		if err := tbl.Primary.Tree.PutAs(tok, u.Key, rid.Pack()); err != nil {
			return err
		}
		for _, ix := range tbl.Secondaries {
			_ = ix.Tree.PutAs(tok, ix.Key(old), rid.Pack())
		}
		return nil
	}
	return fmt.Errorf("sm: unknown undo kind %d", u.Kind)
}

// dropEntry removes key's entry from am only while it points at rid. A
// write whose index maintenance failed part way never installed some of
// its entries, and compensating it must not remove another row's entry
// under the same key.
func dropEntry(tok *btree.Owner, am btree.AccessMethod, key int64, rid storage.RID) {
	if v, err := am.GetAs(tok, key); err == nil && v == rid.Pack() {
		am.DeleteAs(tok, key)
	}
}

// SetTxnIDFloor ensures future transaction ids exceed floor (recovery).
func (s *SM) SetTxnIDFloor(floor uint64) { s.ids.EnsureAtLeast(floor) }

// Close flushes dirty pages and the log, then stops the log manager's
// background worker (if any).
func (s *SM) Close() error {
	if err := s.Log.FlushAll(); err != nil {
		return err
	}
	if err := s.Pool.FlushAll(); err != nil {
		return err
	}
	return s.Log.Close()
}
