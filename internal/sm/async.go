package sm

import (
	"fmt"

	"dora/internal/btree"
	"dora/internal/catalog"
	"dora/internal/storage"
	"dora/internal/tuple"
	"dora/internal/tx"
	"dora/internal/wal"
)

// Asynchronous (continuation-passing) variants of the Session's logical
// operations and of rollback.
//
// Each *Async operation has the same semantics as its synchronous
// counterpart, but instead of parking the calling thread while the
// operation ships to a foreign partition worker, it returns as soon as
// the ship is enqueued and invokes its completion continuation exactly
// once when the operation finished — delivered through home (the
// caller's inbox; see btree.ContExec) so a suspended action resumes on
// its own worker thread. When the key's subtree is local (unowned, or
// owned by the calling session's token) the operation and its
// continuation run inline before the call returns: the aligned fast path
// costs no message and no suspension.
//
// The continuation runs on the home thread (or inline, see above), so it
// may freely issue further session operations; memory written by the
// operation body on the owner's thread is visible to the continuation
// through the inbox hand-off.

// ContExec re-exports the btree continuation executor: callbacks are
// delivered through it to the thread an async operation originated from.
// nil means "no home thread" — continuations then run inline on whichever
// thread completed the operation (acceptable when the continuation needs
// no particular thread, e.g. DORA's rollback chain, whose next step
// ships to its own owner anyway).
type ContExec = btree.ContExec

// ReadAsync is Read in continuation-passing style.
func (ss *Session) ReadAsync(t *tx.Txn, tbl *catalog.Table, key int64, home ContExec, k func(tuple.Record, error)) {
	ss.trace(tbl, key, false)
	if tok, ok := tbl.Primary.Tree.Local(ss.owner, key); ok {
		k(ss.readAt(tok, tbl, key))
		return
	}
	var rec tuple.Record
	var err error
	tbl.Primary.Tree.ExecAtAsync(ss.owner, key, home, func(tok *btree.Owner) {
		rec, err = ss.readAt(tok, tbl, key)
	}, func() { k(rec, err) })
}

// MutateAsync is Mutate in continuation-passing style: like the
// synchronous Mutate, the read-modify-write runs as ONE operation on the
// owning thread — a single ship covers both halves, and on a stamped
// page the heap pass is latch-free (MutateOwnedWith). fn runs on the
// owning thread with that thread's reusable record: the record is valid
// only during the call and must not be kept.
func (ss *Session) MutateAsync(t *tx.Txn, tbl *catalog.Table, key int64, fn func(tuple.Record) tuple.Record, home ContExec, k func(error)) {
	ss.trace(tbl, key, true)
	if tok, ok := tbl.Primary.Tree.Local(ss.owner, key); ok {
		k(ss.mutateAt(tok, t, tbl, key, applyClosure, fn))
		return
	}
	var err error
	tbl.Primary.Tree.ExecAtAsync(ss.owner, key, home, func(tok *btree.Owner) {
		err = ss.mutateAt(tok, t, tbl, key, applyClosure, fn)
	}, func() { k(err) })
}

// ScanRangeAsync is ScanRange in continuation-passing style: the index
// walk ships owned foreign segments to their owners one at a time (the
// sender's thread is free in between), then the heap images are fetched
// and fn applied on the home thread. Like the synchronous scan, the walk
// is fuzzy; point consistency comes from the engine's lock protocol.
func (ss *Session) ScanRangeAsync(t *tx.Txn, tbl *catalog.Table, lo, hi int64, home ContExec, fn func(key int64, rec tuple.Record) bool, k func(error)) {
	// Appended from whichever thread scans each segment — sequentially,
	// with inbox hand-offs ordering the writes before the continuation.
	var hits []scanHit
	tbl.Primary.Tree.AscendRangeAsync(ss.owner, lo, hi, home, func(key int64, val uint64) bool {
		hits = append(hits, scanHit{key, storage.UnpackRID(val)})
		return true
	}, func() {
		k(ss.visitHits(tbl, hits, fn))
	})
}

// ReadByIndexAsync is ReadByIndex in continuation-passing style.
func (ss *Session) ReadByIndexAsync(t *tx.Txn, tbl *catalog.Table, idx string, key int64, home ContExec, k func(tuple.Record, error)) {
	ix := tbl.IndexByName(idx)
	if ix == nil {
		k(nil, fmt.Errorf("sm: no index %q on %s", idx, tbl.Name))
		return
	}
	if tok, ok := ix.Tree.Local(ss.owner, key); ok {
		rec, err := readIndexAt(tok, tbl, ix, key)
		k(ss.indexRead(tbl, rec, err))
		return
	}
	var rec tuple.Record
	var err error
	ix.Tree.ExecAtAsync(ss.owner, key, home, func(tok *btree.Owner) {
		rec, err = readIndexAt(tok, tbl, ix, key)
	}, func() { k(ss.indexRead(tbl, rec, err)) })
}

// RollbackAsync is Rollback in continuation-passing style: the undo
// entries are compensated strictly in reverse order, each riding the
// async ship path to its owning partition, and done(err) fires exactly
// once after the end record was logged (or the first compensation
// failure). The caller's thread is never parked on a partition worker —
// DORA starts an abort's rollback on the worker whose report aborted the
// flow, which must keep draining its inbox (its own compensations may
// ship back to it).
func (s *SM) RollbackAsync(caller *btree.Owner, t *tx.Txn, home ContExec, done func(error)) {
	if t.LastLSN() != 0 {
		t.Append(s.Log, wal.Record{Kind: wal.KAbort, TxnID: t.ID})
	}
	undos := t.TakeUndos()
	var step func(i int)
	step = func(i int) {
		if i >= len(undos) {
			done(s.FinishRollback(t))
			return
		}
		s.ApplyUndoAsync(caller, t, undos[i], home, func(err error) {
			if err != nil {
				done(fmt.Errorf("sm: rollback txn %d: %w", t.ID, err))
				return
			}
			step(i + 1)
		})
	}
	step(0)
}

// ApplyUndoAsync is ApplyUndoAs in continuation-passing style.
func (s *SM) ApplyUndoAsync(caller *btree.Owner, t *tx.Txn, u tx.Undo, home ContExec, k func(error)) {
	tbl := s.Cat.TableByID(u.Table)
	if tbl == nil {
		k(fmt.Errorf("sm: undo references unknown table %d", u.Table))
		return
	}
	var err error
	tbl.Primary.Tree.ExecAtAsync(caller, u.Key, home, func(tok *btree.Owner) {
		err = s.applyUndoAt(tok, t, tbl, u)
	}, func() { k(err) })
}
