package sm

import (
	"fmt"

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
//  1. Analysis: scan the log, folding each record into its transaction's
//     chain; a commit record (terminal) or an end record (rolled back)
//     resolves the transaction, and whatever is still open at the end of
//     the log is a loser.
//  2. Redo: replay every physical record (KInsert/KUpdate/KDelete/KCLR)
//     in log order through the redo pool (predo.go), skipping pages whose
//     LSN already covers the record. An update patch applies only over
//     its exact pre-image; a page that does not hold it fails recovery
//     with a storage.PatchMismatchError.
//  3. Undo: roll back losers by walking each chain backwards, honouring
//     CLR UndoNext pointers, logging fresh CLRs, and closing each with
//     KEnd — the same routine a promoted replica runs.
//  4. Rebuild: the B+tree indexes are volatile, so they are reconstructed
//     by scanning each table's heap.
//
// Tables must already be registered (schema DDL is code, not logged) in
// the same order as the original run, so table ids line up.
func (s *SM) Recover() (RecoveryStats, error) {
	// The indexes are rebuilt at the end, so redo captures no images.
	rp := newReplayer(s, false)
	defer rp.Close()
	st, err := rp.replayLog()
	if err != nil {
		return st, err
	}
	if st.Losers, st.Undone, err = rp.undoLosers(); err != nil {
		return st, err
	}
	if st.Rebuilt, err = s.rebuildIndexes(); err != nil {
		return st, err
	}
	return st, s.Log.FlushAll()
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

// attachOne ensures the record's page exists on the rebuilt disk view
// and is owned by its table's heap.
func (s *SM) attachOne(r *wal.Record) error {
	if wal.PhysicalKind(r) == 0 {
		return nil
	}
	tbl := s.Cat.TableByID(r.Table)
	if tbl == nil {
		return fmt.Errorf("unknown table %d", r.Table)
	}
	return s.attach(tbl, r.Page)
}

// undoLoser rolls back one in-flight transaction by walking its chain —
// its records in LSN order — backwards, compensating each data record
// with a CLR.
func (s *SM) undoLoser(txnID uint64, chain []*wal.Record) (int, error) {
	// Fresh chain context so CLRs link after the loser's existing tail.
	t := &loserTxn{id: txnID, last: chain[len(chain)-1].LSN}
	cur, i, n := t.last, len(chain)-1, 0
	for cur != 0 {
		// Chain pointers only go backwards, so one backward sweep finds
		// every record they name.
		for i >= 0 && chain[i].LSN > cur {
			i--
		}
		if i < 0 || chain[i].LSN != cur {
			return n, fmt.Errorf("broken chain at lsn %d", cur)
		}
		r := chain[i]
		var err error
		switch r.Kind {
		case wal.KCLR:
			cur = r.UndoNext
			continue
		case wal.KInsert:
			err = s.compensateInsert(t, r)
		case wal.KUpdate:
			err = s.compensateUpdate(t, r)
		case wal.KDelete:
			err = s.compensateDelete(t, r)
		default:
			cur = r.PrevLSN
			continue
		}
		if err != nil {
			return n, err
		}
		n++
		cur = r.PrevLSN
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
