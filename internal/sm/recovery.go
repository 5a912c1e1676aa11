package sm

import (
	"fmt"
	"sort"

	"dora/internal/storage"
	"dora/internal/tuple"
	"dora/internal/wal"
)

// RecoveryStats summarizes a completed Recover pass.
type RecoveryStats struct {
	Records int // log records scanned
	Redone  int // physical operations replayed (or skipped via page LSN)
	Losers  int // in-flight transactions rolled back
	Undone  int // undo operations applied for losers
	Rebuilt int // index entries rebuilt from heap scans
}

// Recover performs ARIES-style restart on a reopened storage manager:
//
//  1. Analysis: scan the log, classifying each transaction as a winner
//     (KCommit seen: the commit record is terminal), rolled back (KEnd
//     seen) or a loser (records but neither).
//  2. Redo: replay every physical record (KInsert/KUpdate/KDelete/KCLR)
//     in log order, skipping pages whose LSN already covers the record.
//     An update patch applies only over its exact pre-image; a page that
//     does not hold it fails recovery with a storage.PatchMismatchError.
//  3. Undo: roll back losers by walking each PrevLSN chain backwards,
//     honouring CLR UndoNext pointers, logging fresh CLRs, and closing
//     each with KEnd.
//  4. Rebuild: the B+tree indexes are volatile, so they are reconstructed
//     by scanning each table's heap.
//
// Tables must already be registered (schema DDL is code, not logged) in
// the same order as the original run, so table ids line up.
func (s *SM) Recover() (RecoveryStats, error) {
	var st RecoveryStats
	var recs []*wal.Record
	byLSN := map[uint64]*wal.Record{}
	if err := s.Log.Scan(func(r *wal.Record) error {
		recs = append(recs, r)
		byLSN[r.LSN] = r
		return nil
	}); err != nil {
		return st, err
	}
	st.Records = len(recs)

	// --- Analysis ---
	type txState struct {
		lastLSN   uint64
		committed bool
		ended     bool
	}
	states := map[uint64]*txState{}
	var maxTxn uint64
	var redoPoint uint64
	for _, r := range recs {
		if r.Kind == wal.KCheckpoint && uint64(r.Key) > redoPoint {
			redoPoint = uint64(r.Key)
		}
	}
	s.lastCkptRedo.Store(redoPoint)
	for _, r := range recs {
		if r.TxnID == 0 {
			continue
		}
		if r.TxnID > maxTxn {
			maxTxn = r.TxnID
		}
		ts := states[r.TxnID]
		if ts == nil {
			ts = &txState{}
			states[r.TxnID] = ts
		}
		ts.lastLSN = r.LSN
		switch r.Kind {
		case wal.KCommit:
			ts.committed = true
		case wal.KEnd:
			ts.ended = true
		}
	}
	s.SetTxnIDFloor(maxTxn + 1)

	// --- Redo (repeat history, winners and losers alike). Records below
	// the last checkpoint's redo point reached disk with their pages when
	// the checkpoint flushed, so their physical apply is skipped — but
	// their pages must still be attached to the owning heaps so the
	// index rebuild scan sees them.
	//
	// With Options.RedoWorkers > 1 the physical applies fan out to the
	// partition-parallel pool (predo.go): the dispatcher loop below keeps
	// attachment and checkpoint handling in LSN order and ships each
	// physical record to the applier owning its page; per-page FIFO
	// preserves the idempotence invariant while distinct pages redo
	// concurrently. Recovery rebuilds indexes at the end, so — unlike
	// replica replay — no in-order completion work is needed: a single
	// barrier before undo is the only synchronization. ---
	var pool *redoPool
	if s.redoWorkers > 1 {
		pool = newRedoPool(s.redoWorkers, func(t *redoTask) { t.err = s.redoOne(t.rec) })
	}
	for _, r := range recs {
		if err := s.attachOne(r); err != nil {
			if pool != nil {
				pool.barrier(nil)
				pool.close()
			}
			return st, fmt.Errorf("sm: attach lsn %d: %w", r.LSN, err)
		}
		if r.Kind == wal.KCheckpoint {
			// A truncated log no longer holds the physical records that
			// would attach pages below the redo point; the checkpoint's
			// attachment map restores them.
			if err := s.applyAttachments(r.Redo); err != nil {
				if pool != nil {
					pool.barrier(nil)
					pool.close()
				}
				return st, err
			}
		}
		if r.LSN < redoPoint {
			continue
		}
		if pool != nil {
			if _, ok := wal.PageKey(r); ok {
				pool.dispatch(&redoTask{rec: r})
				st.Redone++
			}
			continue
		}
		if err := s.redoOne(r); err != nil {
			return st, fmt.Errorf("sm: redo lsn %d: %w", r.LSN, err)
		}
		switch r.Kind {
		case wal.KInsert, wal.KUpdate, wal.KDelete, wal.KCLR:
			st.Redone++
		}
	}
	if pool != nil {
		err := pool.barrier(nil)
		pool.close()
		if err != nil {
			return st, fmt.Errorf("sm: parallel redo: %w", err)
		}
	}

	// --- Undo losers, in descending-id order. The order is deterministic
	// so two recoveries of the same crash image — serial or parallel —
	// append identical CLR/KEnd sequences and leave byte-identical pages
	// (the end-state equivalence E17 asserts). ---
	var losers []uint64
	for id, ts := range states {
		if ts.committed || ts.ended {
			continue
		}
		losers = append(losers, id)
	}
	sort.Slice(losers, func(i, j int) bool { return losers[i] > losers[j] })
	for _, id := range losers {
		st.Losers++
		n, err := s.undoLoser(id, states[id].lastLSN, byLSN)
		if err != nil {
			return st, fmt.Errorf("sm: undo txn %d: %w", id, err)
		}
		st.Undone += n
	}

	// --- Rebuild indexes from heaps ---
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

// rebuildIndexes reconstructs every table's volatile B+tree indexes from
// its heap, returning the number of entries rebuilt. Shared by restart
// recovery, replica bootstrap, and promotion (whose loser undo bypasses
// live index maintenance).
func (s *SM) rebuildIndexes() (int, error) {
	rebuilt := 0
	for _, tbl := range s.Cat.Tables() {
		// Rebuild each index with its original shape (partitioned trees
		// come back unowned: a restarted DORA engine re-claims them).
		tbl.Primary.Tree = newIndexTree(s.CS, tbl.Primary.RouteRange != nil)
		for _, ix := range tbl.Secondaries {
			ix.Tree = newIndexTree(s.CS, ix.RouteRange != nil)
		}
		err := tbl.Heap.Scan(func(rid storage.RID, img []byte) bool {
			rec, err := tuple.Decode(img)
			if err != nil {
				return true // skip undecodable garbage defensively
			}
			_ = tbl.Primary.Tree.PutAs(nil, tbl.Primary.Key(rec), rid.Pack())
			for _, ix := range tbl.Secondaries {
				_ = ix.Tree.PutAs(nil, ix.Key(rec), rid.Pack())
			}
			rebuilt++
			return true
		})
		if err != nil {
			return rebuilt, err
		}
	}
	return rebuilt, nil
}

func physicalKind(r *wal.Record) wal.Kind { return wal.PhysicalKind(r) }

// attachOne ensures the record's page exists on the rebuilt disk view
// and is owned by its table's heap.
func (s *SM) attachOne(r *wal.Record) error {
	if physicalKind(r) == 0 {
		return nil
	}
	tbl := s.Cat.TableByID(r.Table)
	if tbl == nil {
		return fmt.Errorf("unknown table %d", r.Table)
	}
	for int(r.Page) >= s.Disk.NumPages() {
		if _, err := s.Disk.Allocate(); err != nil {
			return err
		}
	}
	tbl.Heap.AttachPage(r.Page)
	return nil
}

// redoOne replays one physical log record idempotently.
func (s *SM) redoOne(r *wal.Record) error {
	kind := physicalKind(r)
	if kind == 0 {
		return nil
	}
	tbl := s.Cat.TableByID(r.Table)
	rid := storage.RID{Page: r.Page, Slot: r.Slot}
	switch kind {
	case wal.KInsert:
		return tbl.Heap.RedoInsert(rid, r.Redo, r.LSN)
	case wal.KUpdate:
		_, err := tbl.Heap.RedoPatch(r)
		return err
	case wal.KDelete:
		return tbl.Heap.RedoDelete(rid, r.LSN)
	}
	return nil
}

// undoLoser rolls back one in-flight transaction by walking its log
// chain backwards, compensating each data record with a CLR.
func (s *SM) undoLoser(txnID, lastLSN uint64, byLSN map[uint64]*wal.Record) (int, error) {
	// Fresh chain context so CLRs link after the loser's existing tail.
	t := &loserTxn{id: txnID, last: lastLSN}
	cur := lastLSN
	n := 0
	for cur != 0 {
		r, ok := byLSN[cur]
		if !ok {
			return n, fmt.Errorf("broken chain at lsn %d", cur)
		}
		switch r.Kind {
		case wal.KCLR:
			cur = r.UndoNext
		case wal.KInsert:
			if err := s.compensateInsert(t, r); err != nil {
				return n, err
			}
			n++
			cur = r.PrevLSN
		case wal.KUpdate:
			if err := s.compensateUpdate(t, r); err != nil {
				return n, err
			}
			n++
			cur = r.PrevLSN
		case wal.KDelete:
			if err := s.compensateDelete(t, r); err != nil {
				return n, err
			}
			n++
			cur = r.PrevLSN
		default:
			cur = r.PrevLSN
		}
	}
	s.Log.Append(&wal.Record{Kind: wal.KEnd, TxnID: txnID, PrevLSN: t.last})
	return n, nil
}

// loserTxn is a minimal chain holder for recovery-time CLRs.
type loserTxn struct {
	id   uint64
	last uint64
}

func (s *SM) compensateInsert(t *loserTxn, r *wal.Record) error {
	tbl := s.Cat.TableByID(r.Table)
	rid := storage.RID{Page: r.Page, Slot: r.Slot}
	return tbl.Heap.DeleteWith(rid, func(before []byte) uint64 {
		lsn := s.Log.Append(&wal.Record{
			Kind: wal.KCLR, Sub: wal.KDelete, TxnID: t.id, PrevLSN: t.last,
			UndoNext: r.PrevLSN, Table: r.Table, Page: r.Page, Slot: r.Slot, Key: r.Key,
		})
		t.last = lsn
		return lsn
	})
}

// compensateUpdate reverts an update patch; its CLR is the inverse patch.
func (s *SM) compensateUpdate(t *loserTxn, r *wal.Record) error {
	tbl := s.Cat.TableByID(r.Table)
	return tbl.Heap.UndoPatchWith(r, func() uint64 {
		lsn := s.Log.Append(&wal.Record{
			Kind: wal.KCLR, Sub: wal.KUpdate, TxnID: t.id, PrevLSN: t.last,
			UndoNext: r.PrevLSN, Table: r.Table, Page: r.Page, Slot: r.Slot, Key: r.Key,
			Off: r.Off, Redo: r.Undo, Undo: r.Redo,
		})
		t.last = lsn
		return lsn
	})
}

func (s *SM) compensateDelete(t *loserTxn, r *wal.Record) error {
	tbl := s.Cat.TableByID(r.Table)
	_, err := tbl.Heap.InsertWith(0, r.Undo, func(rid storage.RID) uint64 {
		lsn := s.Log.Append(&wal.Record{
			Kind: wal.KCLR, Sub: wal.KInsert, TxnID: t.id, PrevLSN: t.last,
			UndoNext: r.PrevLSN, Table: r.Table, Page: rid.Page, Slot: rid.Slot, Key: r.Key,
			Redo: r.Undo,
		})
		t.last = lsn
		return lsn
	})
	return err
}
