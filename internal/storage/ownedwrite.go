package storage

import (
	"dora/internal/btree"
	"dora/internal/buffer"
	"dora/internal/page"
)

// Latch-free owner mutations. A page stamped to a partition worker's
// token is mutated ONLY on that worker's thread (session operations reach
// it through the partitioned tree's ExecAt ship), and — under the
// copy-on-write cleaning protocol — is never latched by the buffer pool's
// write-back either: flushing it means asking this same thread for a
// snapshot copy. Under those two facts the exclusive frame latch guards
// nothing on the owner's write path, so these operations elide it:
//
//   - the per-frame write-sequence counter (Frame.BumpWriteSeq, bumped
//     with release semantics immediately before bytes change) replaces
//     the latch for conflict detection between mutations and a hardening
//     snapshot's dirty-bit clear;
//   - the WAL-before-data rule is unchanged: mkLSN appends the log record
//     before the bytes change, and the snapshot harden forces the log to
//     the copy's page LSN before the image reaches disk;
//   - the Loading flag (a concurrent latched reader's miss mid-disk-read)
//     falls back to the latched path, exactly like GetOwned.
//
// With a nil token or an unstamped page, the operations take the classic
// exclusive latch and count OwnedWritesLatched — the decay signal
// experiment E15 watches converge to ~0.

// UpdateOwnedWith is UpdateWith carrying the calling worker's ownership
// token: when rid's page is stamped to tok the rewrite happens without
// the frame latch. mkLSN receives the before image (aliasing the page; it
// must copy) and returns the LSN to stamp.
func (h *Heap) UpdateOwnedWith(tok *btree.Owner, rid RID, rec []byte, mkLSN func(before []byte) uint64) error {
	if tok == nil || h.StampOwner(rid.Page) != tok {
		if tok != nil {
			h.OwnedWrites.Inc()
			h.OwnedWritesLatched.Inc()
		}
		return h.UpdateWith(rid, rec, mkLSN)
	}
	f, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	if f.Loading() {
		h.OwnedWrites.Inc()
		h.OwnedWritesLatched.Inc()
		h.pool.Unpin(f, false)
		return h.UpdateWith(rid, rec, mkLSN)
	}
	old, err := f.Page.Get(int(rid.Slot))
	if err != nil {
		h.pool.Unpin(f, false)
		return err
	}
	// The log record must not be written unless the update applies.
	if !f.Page.CanUpdate(int(rid.Slot), len(rec)) {
		h.pool.Unpin(f, false)
		return page.ErrPageFull
	}
	h.OwnedWrites.Inc()
	lsn := mkLSN(old)
	f.BumpWriteSeq()
	if err := f.Page.Update(int(rid.Slot), rec); err != nil {
		h.pool.Unpin(f, false)
		return err
	}
	f.Page.SetLSN(lsn)
	f.MarkDirty()
	h.pool.Unpin(f, true)
	return nil
}

// DeleteOwnedWith is DeleteWith carrying the calling worker's ownership
// token (see UpdateOwnedWith).
func (h *Heap) DeleteOwnedWith(tok *btree.Owner, rid RID, mkLSN func(before []byte) uint64) error {
	if tok == nil || h.StampOwner(rid.Page) != tok {
		if tok != nil {
			h.OwnedWrites.Inc()
			h.OwnedWritesLatched.Inc()
		}
		return h.DeleteWith(rid, mkLSN)
	}
	f, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	if f.Loading() {
		h.OwnedWrites.Inc()
		h.OwnedWritesLatched.Inc()
		h.pool.Unpin(f, false)
		return h.DeleteWith(rid, mkLSN)
	}
	old, err := f.Page.Get(int(rid.Slot))
	if err != nil {
		h.pool.Unpin(f, false)
		return err
	}
	h.OwnedWrites.Inc()
	lsn := mkLSN(old)
	f.BumpWriteSeq()
	if err := f.Page.Delete(int(rid.Slot)); err != nil {
		h.pool.Unpin(f, false)
		return err
	}
	f.Page.SetLSN(lsn)
	f.MarkDirty()
	h.pool.Unpin(f, true)
	return nil
}

// MutateOwnedWith reads the record at rid, applies mutate to produce the
// after image, and rewrites in place — one page access for the whole
// read-modify-write, so an aligned Mutate costs a single latch-free pass
// instead of a read round and a write round. mutate receives a private
// copy of the before image that the caller may keep (the storage manager
// keeps it as the undo image), and that copy is the only allocation the
// call makes: the latch-free path copies the page bytes once, the latched
// path hands over GetOwned's copy. mutate's result must stay unchanged
// until the call returns. mkLSN appends the log record before the bytes
// change and returns the LSN to stamp. A nil-token / unstamped call
// decomposes into the latched GetOwned + UpdateWith pair.
func (h *Heap) MutateOwnedWith(tok *btree.Owner, rid RID, mutate func(before []byte) ([]byte, error), mkLSN func() uint64) error {
	fastPath := tok != nil && h.StampOwner(rid.Page) == tok
	if fastPath {
		f, err := h.pool.Fetch(rid.Page)
		if err != nil {
			return err
		}
		if f.Loading() {
			h.pool.Unpin(f, false)
		} else {
			old, err := f.Page.Get(int(rid.Slot))
			if err != nil {
				h.pool.Unpin(f, false)
				return err
			}
			h.OwnedReads.Inc()
			rec, err := mutate(append([]byte(nil), old...))
			if err != nil {
				h.pool.Unpin(f, false)
				return err
			}
			if !f.Page.CanUpdate(int(rid.Slot), len(rec)) {
				h.pool.Unpin(f, false)
				return page.ErrPageFull
			}
			h.OwnedWrites.Inc()
			lsn := mkLSN()
			f.BumpWriteSeq()
			if err := f.Page.Update(int(rid.Slot), rec); err != nil {
				h.pool.Unpin(f, false)
				return err
			}
			f.Page.SetLSN(lsn)
			f.MarkDirty()
			h.pool.Unpin(f, true)
			return nil
		}
	}
	// Latched decomposition (also the conventional engine's path, and the
	// mid-load fallback). The record cannot change between the two page
	// accesses: its owner thread (or, in the conventional engine, the
	// caller's record lock) is the only mutator, so GetOwned's copy is the
	// before image UpdateWith sees.
	img, err := h.GetOwned(tok, rid)
	if err != nil {
		return err
	}
	rec, err := mutate(img)
	if err != nil {
		return err
	}
	if tok != nil {
		h.OwnedWrites.Inc()
		h.OwnedWritesLatched.Inc()
	}
	return h.UpdateWith(rid, rec, func([]byte) uint64 { return mkLSN() })
}

// SnapshotOwnedPage produces the copy-on-write image the cleaning
// protocol hardens: a consistent copy of pid at a known LSN, taken at a
// quiescent point. MUST run on the thread owning tok — that is the whole
// point: no mutation of the page can be in flight while this thread is
// here, so the copy needs no latch and cannot tear. Returns false when
// the page is not (or no longer) stamped to tok — the stamp moved with a
// split/evacuate between the ship and its execution — or cannot be
// pinned; the requester re-resolves.
//
// The returned snapshot carries the frame PINNED; buffer.Pool's
// write-back releases the pin after the conditional dirty-clear.
func (h *Heap) SnapshotOwnedPage(tok *btree.Owner, pid page.ID) (buffer.PageSnapshot, bool) {
	if tok == nil || h.StampOwner(pid) != tok {
		return buffer.PageSnapshot{}, false
	}
	f, err := h.pool.Fetch(pid)
	if err != nil {
		return buffer.PageSnapshot{}, false
	}
	img := new(page.Page)
	if f.Loading() {
		// Some latched reader's miss is mid-disk-read; wait it out.
		f.Latch.RLock()
		*img = f.Page
		f.Latch.RUnlock()
	} else {
		*img = f.Page
	}
	return buffer.PageSnapshot{Frame: f, Img: img, Seq: f.WriteSeq()}, true
}
