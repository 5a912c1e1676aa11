package sm

import (
	"errors"

	"dora/internal/btree"
	"dora/internal/catalog"
	"dora/internal/storage"
	"dora/internal/tuple"
	"dora/internal/tx"
	"dora/internal/wal"
)

// MigrateRecord is the record-movement half of background physical
// maintenance: it relocates the record under key from whatever shared
// page it lives on into a page owned by the session's token, so the
// owner's aligned reads of it stop taking the frame latch. The move is
// logically a no-op and physically a logged delete + re-insert under
// the caller's (maintenance) transaction: if that transaction loses at
// a crash, recovery compensates the insert and the delete in reverse
// and exactly one image of the record survives — the same guarantee
// in-memory rollback gives through the two undo entries.
//
// It MUST run on the thread owning key's primary subtree (the
// maintenance daemon reaches it through dora's owner-thread executor),
// which is what makes the delete→insert→re-point window invisible:
// every aligned access and every shipped foreign access to the key —
// every shipMsg, parked or continuation-passing —
// serializes behind it in the owner's inbox, so the maintenance txn
// composes with the asynchronous ship path unchanged.
//
// Returns false without error when there is nothing to do: the key
// vanished (deleted by a foreground transaction), the session carries
// no token, or the record already lives on a page stamped to it.
func (ss *Session) MigrateRecord(t *tx.Txn, tbl *catalog.Table, key int64) (bool, error) {
	tok := ss.owner
	if tok == nil {
		return false, nil
	}
	v, err := tbl.Primary.Tree.GetAs(tok, key)
	if err != nil {
		if errors.Is(err, btree.ErrNotFound) {
			return false, nil
		}
		return false, err
	}
	rid := storage.UnpackRID(v)
	if tbl.Heap.StampOwner(rid.Page) == tok {
		return false, nil
	}
	img, err := tbl.Heap.GetOwned(tok, rid)
	if err != nil {
		return false, err
	}
	rec, err := tuple.Decode(img)
	if err != nil {
		return false, err
	}
	// Delete the original first: rollback applies undos in reverse, so
	// the copy's UInsert compensates before the original's UDelete
	// restores — ending, like recovery's backward chain walk, with
	// exactly one image under the key.
	var dPrev, dLSN uint64
	err = tbl.Heap.DeleteOwnedWith(tok, rid, func([]byte) uint64 {
		dLSN, dPrev = t.Append(ss.sm.Log, wal.Record{
			Kind: wal.KDelete, TxnID: t.ID,
			Table: tbl.ID, Page: rid.Page, Slot: rid.Slot, Key: key,
			Undo: img,
		})
		return dLSN
	})
	if err != nil {
		return false, err
	}
	t.AddUndo(tx.Undo{
		Kind: tx.UDelete, Table: tbl.ID, Key: key, RID: rid,
		Before: img, LSN: dLSN, PrevLSN: dPrev,
	})
	var iPrev, iLSN uint64
	nrid, err := tbl.Heap.InsertOwnedWith(tok, ss.worker, img, func(nrid storage.RID) uint64 {
		iLSN, iPrev = t.Append(ss.sm.Log, wal.Record{
			Kind: wal.KInsert, TxnID: t.ID,
			Table: tbl.ID, Page: nrid.Page, Slot: nrid.Slot, Key: key,
			Redo: img,
		})
		return iLSN
	})
	if err != nil {
		return false, err
	}
	t.AddUndo(tx.Undo{
		Kind: tx.UInsert, Table: tbl.ID, Key: key, RID: nrid,
		LSN: iLSN, PrevLSN: iPrev,
	})
	// Re-point every index at the copy. PutAs overwrites in place; the
	// primary entry exists throughout, so no reader sees a missing key.
	if err := tbl.Primary.Tree.PutAs(tok, key, nrid.Pack()); err != nil {
		return false, err
	}
	for _, ix := range tbl.Secondaries {
		if err := ix.Tree.PutAs(tok, ix.Key(rec), nrid.Pack()); err != nil {
			return false, err
		}
	}
	return true, nil
}
