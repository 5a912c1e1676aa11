package sm

import (
	"errors"
	"fmt"

	"dora/internal/btree"
	"dora/internal/catalog"
	"dora/internal/metrics"
	"dora/internal/storage"
	"dora/internal/tuple"
	"dora/internal/tx"
	"dora/internal/wal"
)

// Session is a per-worker access handle. It exists so the access tracer
// (experiment E1) can attribute every record touch to the worker thread
// that performed it — the raw material of the demo's "Access Patterns"
// panel. Sessions add no synchronization and are not themselves
// goroutine-safe; each worker owns one.
//
// Every logical operation executes through the primary index's ExecAt:
// when the key's subtree is claimed by a partition worker, the WHOLE
// operation — index descents, heap access, log appends — runs on that
// worker's thread with its ownership token (shipping there when the
// caller is someone else). That is what lets owned heap pages drop
// their frame latches for reads: the owner's thread is provably the
// only mutator, and every foreign access serializes through its inbox.
type Session struct {
	sm     *SM
	worker int
	// owner is the access-path ownership token for partitioned index
	// subtrees. Only DORA partition workers carry one (via OwnedSession);
	// plain sessions pass nil and take the shared latched path (or ship
	// to the owner when a subtree is claimed).
	owner *btree.Owner
}

// Worker returns the worker id this session is tagged with.
func (ss *Session) Worker() int { return ss.worker }

// SM returns the underlying storage manager.
func (ss *Session) SM() *SM { return ss.sm }

// Owner returns the session's access-path ownership token (nil for
// shared sessions).
func (ss *Session) Owner() *btree.Owner { return ss.owner }

func (ss *Session) trace(tbl *catalog.Table, key int64, write bool) {
	tr := ss.sm.Tracer
	if tr == nil || !tr.Enabled() {
		return
	}
	tr.Record(metrics.Access{Worker: ss.worker, Table: int(tbl.ID), Key: key, Write: write})
}

// notFoundError is ErrNotFound for one key of a table (index == "") or
// of one of its secondary indexes. Its message is built only when asked
// for: a miss the workload expects (TATP probes absent rows by design)
// costs one small allocation instead of a formatted string.
type notFoundError struct {
	table, index string
	key          int64
}

func (e *notFoundError) Error() string {
	if e.index == "" {
		return fmt.Sprintf("%v: %s[%d]", ErrNotFound, e.table, e.key)
	}
	return fmt.Sprintf("%v: %s.%s[%d]", ErrNotFound, e.table, e.index, e.key)
}

func (e *notFoundError) Unwrap() error { return ErrNotFound }

// Read returns the record with the given primary key. When the key's
// subtree is local to the session (unowned, or owned by it) the read
// runs inline with no closure; otherwise it ships to the owner.
func (ss *Session) Read(t *tx.Txn, tbl *catalog.Table, key int64) (tuple.Record, error) {
	ss.trace(tbl, key, false)
	if tok, ok := tbl.Primary.Tree.Local(ss.owner, key); ok {
		return ss.readAt(tok, tbl, key)
	}
	var rec tuple.Record
	var err error
	tbl.Primary.Tree.ExecAt(ss.owner, key, func(tok *btree.Owner) {
		rec, err = ss.readAt(tok, tbl, key)
	})
	return rec, err
}

func (ss *Session) readAt(tok *btree.Owner, tbl *catalog.Table, key int64) (tuple.Record, error) {
	v, err := tbl.Primary.Tree.GetAs(tok, key)
	if err != nil {
		if errors.Is(err, btree.ErrNotFound) {
			return nil, &notFoundError{table: tbl.Name, key: key}
		}
		return nil, err
	}
	img, err := tbl.Heap.GetOwned(tok, storage.UnpackRID(v))
	if err != nil {
		return nil, err
	}
	return tuple.Decode(img)
}

// ReadByIndex returns the record whose secondary index entry equals key.
func (ss *Session) ReadByIndex(t *tx.Txn, tbl *catalog.Table, idx string, key int64) (tuple.Record, error) {
	ix := tbl.IndexByName(idx)
	if ix == nil {
		return nil, fmt.Errorf("sm: no index %q on %s", idx, tbl.Name)
	}
	if tok, ok := ix.Tree.Local(ss.owner, key); ok {
		rec, err := readIndexAt(tok, tbl, ix, key)
		return ss.indexRead(tbl, rec, err)
	}
	var rec tuple.Record
	var err error
	ix.Tree.ExecAt(ss.owner, key, func(tok *btree.Owner) {
		rec, err = readIndexAt(tok, tbl, ix, key)
	})
	return ss.indexRead(tbl, rec, err)
}

// indexRead traces the row an index read found.
func (ss *Session) indexRead(tbl *catalog.Table, rec tuple.Record, err error) (tuple.Record, error) {
	if err != nil {
		return nil, err
	}
	ss.trace(tbl, tbl.Primary.Key(rec), false)
	return rec, nil
}

// readIndexAt is the owner-thread body of ReadByIndex: probe the
// secondary, then decode the row it points at. A routable secondary maps
// a routing range to the same worker as the primary, so tok also matches
// the heap page stamps.
func readIndexAt(tok *btree.Owner, tbl *catalog.Table, ix *catalog.Index, key int64) (tuple.Record, error) {
	v, err := ix.Tree.GetAs(tok, key)
	if err != nil {
		if errors.Is(err, btree.ErrNotFound) {
			return nil, &notFoundError{table: tbl.Name, index: ix.Name, key: key}
		}
		return nil, err
	}
	img, err := tbl.Heap.GetOwned(tok, storage.UnpackRID(v))
	if err != nil {
		return nil, err
	}
	return tuple.Decode(img)
}

// scanHit is one index entry collected by a range scan before its heap
// fetch.
type scanHit struct {
	key int64
	rid storage.RID
}

// visitHits fetches and decodes each hit's record and applies fn,
// stopping early when fn returns false. A hit whose record vanished
// between index scan and heap fetch is skipped defensively (engines
// prevent this via their isolation protocol).
func (ss *Session) visitHits(tbl *catalog.Table, hits []scanHit, fn func(key int64, rec tuple.Record) bool) error {
	for _, h := range hits {
		ss.trace(tbl, h.key, false)
		img, err := tbl.Heap.GetOwned(ss.owner, h.rid)
		if err != nil {
			continue
		}
		rec, err := tuple.Decode(img)
		if err != nil {
			return err
		}
		if !fn(h.key, rec) {
			return nil
		}
	}
	return nil
}

// ScanRange visits records with lo <= primary key <= hi in key order.
func (ss *Session) ScanRange(t *tx.Txn, tbl *catalog.Table, lo, hi int64, fn func(key int64, rec tuple.Record) bool) error {
	var hits []scanHit
	tbl.Primary.Tree.AscendRangeAs(ss.owner, lo, hi, func(key int64, val uint64) bool {
		hits = append(hits, scanHit{key, storage.UnpackRID(val)})
		return true
	})
	return ss.visitHits(tbl, hits, fn)
}

// Insert stores rec under its primary key, maintaining all indexes and
// logging for redo/undo.
func (ss *Session) Insert(t *tx.Txn, tbl *catalog.Table, rec tuple.Record) (err error) {
	key := tbl.Primary.Key(rec)
	ss.trace(tbl, key, true)
	tbl.Primary.Tree.ExecAt(ss.owner, key, func(tok *btree.Owner) {
		err = ss.insertAt(tok, t, tbl, key, rec)
	})
	return err
}

func (ss *Session) insertAt(tok *btree.Owner, t *tx.Txn, tbl *catalog.Table, key int64, rec tuple.Record) error {
	if _, err := tbl.Primary.Tree.GetAs(tok, key); err == nil {
		return fmt.Errorf("%w: %s[%d]", ErrDuplicate, tbl.Name, key)
	}
	enc := tuple.Encode(rec)
	var prevLSN, opLSN uint64
	rid, err := tbl.Heap.InsertOwnedWith(tok, ss.worker, enc, func(rid storage.RID) uint64 {
		return t.Chain(func(prev uint64) uint64 {
			prevLSN = prev
			opLSN = ss.sm.Log.Append(&wal.Record{
				Kind: wal.KInsert, TxnID: t.ID, PrevLSN: prev,
				Table: tbl.ID, Page: rid.Page, Slot: rid.Slot, Key: key,
				Redo: enc,
			})
			return opLSN
		})
	})
	if err != nil {
		return err
	}
	if err := tbl.Primary.Tree.InsertAs(tok, key, rid.Pack()); err != nil {
		return fmt.Errorf("sm: primary index insert %s[%d]: %w", tbl.Name, key, err)
	}
	for _, ix := range tbl.Secondaries {
		if err := ix.Tree.PutAs(tok, ix.Key(rec), rid.Pack()); err != nil {
			return err
		}
	}
	t.AddUndo(tx.Undo{
		Kind: tx.UInsert, Table: tbl.ID, Key: key, RID: rid,
		LSN: opLSN, PrevLSN: prevLSN,
	})
	return nil
}

// Update replaces the record stored under key with rec (primary key must
// be unchanged).
func (ss *Session) Update(t *tx.Txn, tbl *catalog.Table, key int64, rec tuple.Record) (err error) {
	if nk := tbl.Primary.Key(rec); nk != key {
		return fmt.Errorf("sm: update changes primary key %d -> %d on %s", key, nk, tbl.Name)
	}
	ss.trace(tbl, key, true)
	tbl.Primary.Tree.ExecAt(ss.owner, key, func(tok *btree.Owner) {
		err = ss.updateAt(tok, t, tbl, key, rec)
	})
	return err
}

func (ss *Session) updateAt(tok *btree.Owner, t *tx.Txn, tbl *catalog.Table, key int64, rec tuple.Record) error {
	v, err := tbl.Primary.Tree.GetAs(tok, key)
	if err != nil {
		if errors.Is(err, btree.ErrNotFound) {
			return &notFoundError{table: tbl.Name, key: key}
		}
		return err
	}
	rid := storage.UnpackRID(v)
	enc := tuple.Encode(rec)
	var beforeCopy []byte
	var prevLSN, opLSN uint64
	err = tbl.Heap.UpdateOwnedWith(tok, rid, enc, func(before []byte) uint64 {
		beforeCopy = append([]byte(nil), before...)
		return t.Chain(func(prev uint64) uint64 {
			prevLSN = prev
			opLSN = ss.sm.Log.Append(&wal.Record{
				Kind: wal.KUpdate, TxnID: t.ID, PrevLSN: prev,
				Table: tbl.ID, Page: rid.Page, Slot: rid.Slot, Key: key,
				Redo: enc, Undo: beforeCopy,
			})
			return opLSN
		})
	})
	if err != nil {
		return err
	}
	old, err := tuple.Decode(beforeCopy)
	if err != nil {
		return err
	}
	return ss.finishUpdate(tok, t, tbl, key, rid, old, rec, beforeCopy, opLSN, prevLSN)
}

// finishUpdate is the shared tail of updateAt and mutateAt: re-point
// secondary index entries whose keys moved, then record the UUpdate
// undo entry.
func (ss *Session) finishUpdate(tok *btree.Owner, t *tx.Txn, tbl *catalog.Table, key int64, rid storage.RID, old, upd tuple.Record, beforeCopy []byte, opLSN, prevLSN uint64) error {
	for _, ix := range tbl.Secondaries {
		okey, nkey := ix.Key(old), ix.Key(upd)
		if okey != nkey {
			ix.Tree.DeleteAs(tok, okey)
			if err := ix.Tree.PutAs(tok, nkey, rid.Pack()); err != nil {
				return err
			}
		}
	}
	t.AddUndo(tx.Undo{
		Kind: tx.UUpdate, Table: tbl.ID, Key: key, RID: rid,
		Before: beforeCopy, LSN: opLSN, PrevLSN: prevLSN,
	})
	return nil
}

// Mutate reads the record under key, applies fn, and writes it back. The
// read-modify-write executes as ONE operation on the key's owning thread
// (a single ExecAt ship covers both halves, and on a stamped page the
// whole pass is latch-free through the heap's MutateOwnedWith), matching
// MutateAsync's single-ship semantics.
func (ss *Session) Mutate(t *tx.Txn, tbl *catalog.Table, key int64, fn func(tuple.Record) tuple.Record) (err error) {
	ss.trace(tbl, key, true)
	tbl.Primary.Tree.ExecAt(ss.owner, key, func(tok *btree.Owner) {
		err = ss.mutateAt(tok, t, tbl, key, fn)
	})
	return err
}

// mutateAt is the owner-thread body of Mutate.
func (ss *Session) mutateAt(tok *btree.Owner, t *tx.Txn, tbl *catalog.Table, key int64, fn func(tuple.Record) tuple.Record) error {
	v, err := tbl.Primary.Tree.GetAs(tok, key)
	if err != nil {
		if errors.Is(err, btree.ErrNotFound) {
			return &notFoundError{table: tbl.Name, key: key}
		}
		return err
	}
	rid := storage.UnpackRID(v)
	var beforeCopy, enc []byte
	var old, upd tuple.Record
	var prevLSN, opLSN uint64
	err = tbl.Heap.MutateOwnedWith(tok, rid, func(before []byte) ([]byte, error) {
		// before aliases the page; copy before anything mutates it.
		beforeCopy = append([]byte(nil), before...)
		var derr error
		old, derr = tuple.Decode(beforeCopy)
		if derr != nil {
			return nil, derr
		}
		upd = fn(old.Clone())
		if nk := tbl.Primary.Key(upd); nk != key {
			return nil, fmt.Errorf("sm: update changes primary key %d -> %d on %s", key, nk, tbl.Name)
		}
		enc = tuple.Encode(upd)
		return enc, nil
	}, func(_, _ []byte) uint64 {
		return t.Chain(func(prev uint64) uint64 {
			prevLSN = prev
			opLSN = ss.sm.Log.Append(&wal.Record{
				Kind: wal.KUpdate, TxnID: t.ID, PrevLSN: prev,
				Table: tbl.ID, Page: rid.Page, Slot: rid.Slot, Key: key,
				Redo: enc, Undo: beforeCopy,
			})
			return opLSN
		})
	})
	if err != nil {
		return err
	}
	return ss.finishUpdate(tok, t, tbl, key, rid, old, upd, beforeCopy, opLSN, prevLSN)
}

// Delete removes the record under key from the table and all indexes.
func (ss *Session) Delete(t *tx.Txn, tbl *catalog.Table, key int64) (err error) {
	ss.trace(tbl, key, true)
	tbl.Primary.Tree.ExecAt(ss.owner, key, func(tok *btree.Owner) {
		err = ss.deleteAt(tok, t, tbl, key)
	})
	return err
}

func (ss *Session) deleteAt(tok *btree.Owner, t *tx.Txn, tbl *catalog.Table, key int64) error {
	v, err := tbl.Primary.Tree.GetAs(tok, key)
	if err != nil {
		if errors.Is(err, btree.ErrNotFound) {
			return &notFoundError{table: tbl.Name, key: key}
		}
		return err
	}
	rid := storage.UnpackRID(v)
	// Remove index entries first so no reader can follow a dangling RID.
	tbl.Primary.Tree.DeleteAs(tok, key)
	var beforeCopy []byte
	var prevLSN, opLSN uint64
	err = tbl.Heap.DeleteOwnedWith(tok, rid, func(before []byte) uint64 {
		beforeCopy = append([]byte(nil), before...)
		return t.Chain(func(prev uint64) uint64 {
			prevLSN = prev
			opLSN = ss.sm.Log.Append(&wal.Record{
				Kind: wal.KDelete, TxnID: t.ID, PrevLSN: prev,
				Table: tbl.ID, Page: rid.Page, Slot: rid.Slot, Key: key,
				Undo: beforeCopy,
			})
			return opLSN
		})
	})
	if err != nil {
		// Restore the index entry we removed.
		_ = tbl.Primary.Tree.PutAs(tok, key, rid.Pack())
		return err
	}
	old, err := tuple.Decode(beforeCopy)
	if err != nil {
		return err
	}
	for _, ix := range tbl.Secondaries {
		ix.Tree.DeleteAs(tok, ix.Key(old))
	}
	t.AddUndo(tx.Undo{
		Kind: tx.UDelete, Table: tbl.ID, Key: key, RID: rid,
		Before: beforeCopy, LSN: opLSN, PrevLSN: prevLSN,
	})
	return nil
}
