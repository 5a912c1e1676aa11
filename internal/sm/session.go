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
// Every logical operation executes on the thread that owns the key's
// subtree: when it is claimed by a partition worker, the WHOLE
// operation — index descents, heap access, log appends — runs on that
// worker's thread with its ownership token (inline when the caller is
// that worker, otherwise shipped there through the primary index's
// ExecAt). That is what lets owned heap pages drop
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

// writeScratch is one thread's reusable write-path state: the decoded
// before image, the copy of it handed to a Mutate callback, and the
// encoded after image. The buffers belong to the thread that runs the
// operation body — on owned subtrees that is the owner's thread, so they
// hang off its token (scratchFor), never off the calling Session: a
// MutateAsync runs its body on a foreign owner's thread while the caller
// goes on using its own session. The log manager and the page copy the
// encoded image, so it may be overwritten once they return.
type writeScratch struct {
	old, upd tuple.Record
	enc      []byte
}

// scratchFor returns the write buffers of the thread running with tok,
// creating them on first use. With a nil token (shared trees: the
// conventional engine, load phases) it returns fresh, the caller's
// stack-local zero value, so that path allocates its buffers per call.
func scratchFor(tok *btree.Owner, fresh *writeScratch) *writeScratch {
	if tok == nil {
		return fresh
	}
	if sc, ok := tok.Scratch().(*writeScratch); ok {
		return sc
	}
	sc := new(writeScratch)
	tok.SetScratch(sc)
	return sc
}

// encode encodes rec into the scratch buffer and returns it.
func (sc *writeScratch) encode(rec tuple.Record) []byte {
	sc.enc = tuple.AppendEncode(sc.enc[:0], rec)
	return sc.enc
}

// decodeOld decodes a before image into the scratch record.
func (sc *writeScratch) decodeOld(img []byte) (tuple.Record, error) {
	old, err := tuple.DecodeInto(sc.old, img)
	if err == nil {
		sc.old = old
	}
	return old, err
}

// Insert stores rec under its primary key, maintaining all indexes and
// logging for redo/undo. When the key's subtree is local to the session
// the insert runs inline with no closure; otherwise it ships to the
// owner.
func (ss *Session) Insert(t *tx.Txn, tbl *catalog.Table, rec tuple.Record) error {
	key := tbl.Primary.Key(rec)
	ss.trace(tbl, key, true)
	if tok, ok := tbl.Primary.Tree.Local(ss.owner, key); ok {
		return ss.insertAt(tok, t, tbl, key, rec)
	}
	var err error
	tbl.Primary.Tree.ExecAt(ss.owner, key, func(tok *btree.Owner) {
		err = ss.insertAt(tok, t, tbl, key, rec)
	})
	return err
}

func (ss *Session) insertAt(tok *btree.Owner, t *tx.Txn, tbl *catalog.Table, key int64, rec tuple.Record) error {
	if _, err := tbl.Primary.Tree.GetAs(tok, key); err == nil {
		return fmt.Errorf("%w: %s[%d]", ErrDuplicate, tbl.Name, key)
	}
	var fresh writeScratch
	enc := scratchFor(tok, &fresh).encode(rec)
	var prevLSN, opLSN uint64
	rid, err := tbl.Heap.InsertOwnedWith(tok, ss.worker, enc, func(rid storage.RID) uint64 {
		opLSN, prevLSN = t.Append(ss.sm.Log, wal.Record{
			Kind: wal.KInsert, TxnID: t.ID,
			Table: tbl.ID, Page: rid.Page, Slot: rid.Slot, Key: key,
			Redo: enc,
		})
		return opLSN
	})
	if err != nil {
		return err
	}
	// The heap insert is logged: its undo entry goes in before index
	// maintenance, so a failed index update below is still rolled back.
	t.AddUndo(tx.Undo{
		Kind: tx.UInsert, Table: tbl.ID, Key: key, RID: rid,
		LSN: opLSN, PrevLSN: prevLSN,
	})
	if err := tbl.Primary.Tree.InsertAs(tok, key, rid.Pack()); err != nil {
		return fmt.Errorf("sm: primary index insert %s[%d]: %w", tbl.Name, key, err)
	}
	for _, ix := range tbl.Secondaries {
		if err := ix.Tree.PutAs(tok, ix.Key(rec), rid.Pack()); err != nil {
			return err
		}
	}
	return nil
}

// Update replaces the record stored under key with rec (primary key must
// be unchanged).
func (ss *Session) Update(t *tx.Txn, tbl *catalog.Table, key int64, rec tuple.Record) error {
	if nk := tbl.Primary.Key(rec); nk != key {
		return fmt.Errorf("sm: update changes primary key %d -> %d on %s", key, nk, tbl.Name)
	}
	ss.trace(tbl, key, true)
	if tok, ok := tbl.Primary.Tree.Local(ss.owner, key); ok {
		return ss.updateAt(tok, t, tbl, key, rec)
	}
	var err error
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
	var fresh writeScratch
	sc := scratchFor(tok, &fresh)
	enc := sc.encode(rec)
	var before []byte
	var prevLSN, opLSN uint64
	err = tbl.Heap.UpdateOwnedWith(tok, rid, enc, func(img []byte) uint64 {
		// img aliases the page; the copy is the undo image.
		before = append([]byte(nil), img...)
		opLSN, prevLSN = ss.logUpdate(t, tbl, key, rid, before, enc)
		return opLSN
	})
	if err != nil {
		return err
	}
	return ss.finishUpdate(tok, t, tbl, key, rid, sc, nil, rec, before, opLSN, prevLSN)
}

// logUpdate appends the update of rid from before to after as a patch of
// the bytes that changed, returning the record's LSN and the chain head
// it replaced.
func (ss *Session) logUpdate(t *tx.Txn, tbl *catalog.Table, key int64, rid storage.RID, before, after []byte) (lsn, prev uint64) {
	off, redo, undo := wal.Diff(before, after)
	return t.Append(ss.sm.Log, wal.Record{
		Kind: wal.KUpdate, TxnID: t.ID,
		Table: tbl.ID, Page: rid.Page, Slot: rid.Slot, Key: key,
		Off: uint16(off), Redo: redo, Undo: undo,
	})
}

// finishUpdate is the shared tail of updateAt and mutateAt. It records
// the UUpdate undo entry first, so that a failed index update still rolls
// the logged heap write back, then re-points secondary index entries
// whose keys moved. old is the decoded before image, or nil to decode it
// from before when a secondary needs it.
func (ss *Session) finishUpdate(tok *btree.Owner, t *tx.Txn, tbl *catalog.Table, key int64, rid storage.RID, sc *writeScratch, old, upd tuple.Record, before []byte, opLSN, prevLSN uint64) error {
	t.AddUndo(tx.Undo{
		Kind: tx.UUpdate, Table: tbl.ID, Key: key, RID: rid,
		Before: before, LSN: opLSN, PrevLSN: prevLSN,
	})
	if len(tbl.Secondaries) == 0 {
		return nil
	}
	if old == nil {
		var err error
		if old, err = sc.decodeOld(before); err != nil {
			return err
		}
	}
	for _, ix := range tbl.Secondaries {
		okey, nkey := ix.Key(old), ix.Key(upd)
		if okey == nkey {
			continue
		}
		ix.Tree.DeleteAs(tok, okey)
		if err := ix.Tree.PutAs(tok, nkey, rid.Pack()); err != nil {
			// Put back the entry this update removed; rollback restores
			// the heap image it points at.
			_ = ix.Tree.PutAs(tok, okey, rid.Pack())
			return err
		}
	}
	return nil
}

// Mutate reads the record under key, applies fn, and writes it back. The
// read-modify-write executes as ONE operation on the key's owning thread
// (inline when the key's subtree is local to the session, otherwise a
// single ExecAt ship covers both halves; on a stamped page the whole pass
// is latch-free through the heap's MutateOwnedWith), matching
// MutateAsync's single-ship semantics.
//
// The record passed to fn is the executing thread's reusable buffer: it
// is valid only during the call and must not be kept. fn may modify and
// return it.
func (ss *Session) Mutate(t *tx.Txn, tbl *catalog.Table, key int64, fn func(tuple.Record) tuple.Record) error {
	return ss.MutateWith(t, tbl, key, applyClosure, fn)
}

// applyClosure is the modifier of the closure forms (Mutate,
// MutateAsync): arg is the caller's closure.
func applyClosure(r tuple.Record, arg any) tuple.Record {
	return arg.(func(tuple.Record) tuple.Record)(r)
}

// MutateWith is Mutate with a modifier that captures nothing: fn receives
// the record and arg, so a caller passing a package-level fn and a
// pointer arg allocates no closure. fn runs under the same rules as
// Mutate's.
func (ss *Session) MutateWith(t *tx.Txn, tbl *catalog.Table, key int64, fn func(tuple.Record, any) tuple.Record, arg any) error {
	ss.trace(tbl, key, true)
	if tok, ok := tbl.Primary.Tree.Local(ss.owner, key); ok {
		return ss.mutateAt(tok, t, tbl, key, fn, arg)
	}
	var err error
	tbl.Primary.Tree.ExecAt(ss.owner, key, func(tok *btree.Owner) {
		err = ss.mutateAt(tok, t, tbl, key, fn, arg)
	})
	return err
}

// mutateAt is the owner-thread body of MutateWith. On an owner's thread
// its only allocation is the heap's copy of the before image, which
// becomes the undo image.
func (ss *Session) mutateAt(tok *btree.Owner, t *tx.Txn, tbl *catalog.Table, key int64, fn func(tuple.Record, any) tuple.Record, arg any) error {
	v, err := tbl.Primary.Tree.GetAs(tok, key)
	if err != nil {
		if errors.Is(err, btree.ErrNotFound) {
			return &notFoundError{table: tbl.Name, key: key}
		}
		return err
	}
	rid := storage.UnpackRID(v)
	var fresh writeScratch
	sc := scratchFor(tok, &fresh)
	var before, enc []byte
	var old, upd tuple.Record
	var prevLSN, opLSN uint64
	err = tbl.Heap.MutateOwnedWith(tok, rid, func(img []byte) ([]byte, error) {
		before = img
		var derr error
		if old, derr = sc.decodeOld(img); derr != nil {
			return nil, derr
		}
		sc.upd = append(sc.upd[:0], old...)
		upd = fn(sc.upd, arg)
		if nk := tbl.Primary.Key(upd); nk != key {
			return nil, fmt.Errorf("sm: update changes primary key %d -> %d on %s", key, nk, tbl.Name)
		}
		enc = sc.encode(upd)
		return enc, nil
	}, func() uint64 {
		opLSN, prevLSN = ss.logUpdate(t, tbl, key, rid, before, enc)
		return opLSN
	})
	if err != nil {
		return err
	}
	return ss.finishUpdate(tok, t, tbl, key, rid, sc, old, upd, before, opLSN, prevLSN)
}

// Delete removes the record under key from the table and all indexes.
func (ss *Session) Delete(t *tx.Txn, tbl *catalog.Table, key int64) error {
	ss.trace(tbl, key, true)
	if tok, ok := tbl.Primary.Tree.Local(ss.owner, key); ok {
		return ss.deleteAt(tok, t, tbl, key)
	}
	var err error
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
	var before []byte
	var prevLSN, opLSN uint64
	err = tbl.Heap.DeleteOwnedWith(tok, rid, func(img []byte) uint64 {
		before = append([]byte(nil), img...)
		opLSN, prevLSN = t.Append(ss.sm.Log, wal.Record{
			Kind: wal.KDelete, TxnID: t.ID,
			Table: tbl.ID, Page: rid.Page, Slot: rid.Slot, Key: key,
			Undo: before,
		})
		return opLSN
	})
	if err != nil {
		// Restore the index entry we removed.
		_ = tbl.Primary.Tree.PutAs(tok, key, rid.Pack())
		return err
	}
	t.AddUndo(tx.Undo{
		Kind: tx.UDelete, Table: tbl.ID, Key: key, RID: rid,
		Before: before, LSN: opLSN, PrevLSN: prevLSN,
	})
	if len(tbl.Secondaries) == 0 {
		return nil
	}
	var fresh writeScratch
	old, err := scratchFor(tok, &fresh).decodeOld(before)
	if err != nil {
		return err
	}
	for _, ix := range tbl.Secondaries {
		ix.Tree.DeleteAs(tok, ix.Key(old))
	}
	return nil
}
