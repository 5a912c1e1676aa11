package storage

import (
	"sync"

	"dora/internal/btree"
	"dora/internal/page"
)

// Heap-page ownership. A page can be STAMPED with a partition worker's
// ownership token (the same opaque *btree.Owner the partitioned B+tree
// trusts). The stamp is a promise maintained by the layers above:
//
//   - every live record on a stamped page belongs to the stamping
//     worker's key ranges, and
//   - every mutation of a stamped page executes on that worker's thread
//     (session operations reach it through the partitioned tree's
//     ExecAt ship; inserts land there only through the owner's private
//     fill list — tryInsertWith refuses stamped pages).
//
// Under that promise the owner's RECORD READS need no frame latch, and —
// since the copy-on-write page-cleaning protocol (ownedwrite.go) — its
// MUTATIONS need none either: the buffer pool's write-back no longer
// latches a stamped frame, it ships a snapshot request to the owning
// worker and hardens the copy the owner took at a quiescent point of its
// own thread, while a per-frame write-sequence counter (bumped before
// every byte mutation) replaces the latch for dirty-bit conflict
// detection. The frame-latch class is thereby retired for BOTH aligned
// reads (PR 3) and aligned writes on stamped pages, once the maintenance
// daemon (internal/maint) has migrated or re-stamped the pages that
// repartitioning orphaned.
//
// Stamps are volatile: recovery rebuilds the heap with no stamps and the
// daemon re-derives them, so no stamp ever needs logging.

// ownedPages is one token's private page list: its insert fill target
// and the scan-support registry for pages outside the shared stripes.
// The owning worker's thread is the only mutator in the steady state;
// the mutex exists for Pages()/statistics readers and the quiesced
// release paths.
type ownedPages struct {
	mu    sync.Mutex
	pages []page.ID
	fill  int // index of the page inserts try first
}

// setStamp publishes a stamp in the heap's registry AND the buffer
// pool's mirror (the pool's eviction policy and write-back consult the
// mirror with one lock-free load per frame). Both stores happen before
// any content verify takes the frame latch — the latched write-back's
// decisive stamp re-check depends on that order.
func (h *Heap) setStamp(pid page.ID, tok *btree.Owner) {
	h.stamps.Store(pid, tok)
	h.pool.MarkStamped(pid)
}

// clearStamp drops a stamp from both registries.
func (h *Heap) clearStamp(pid page.ID) {
	h.stamps.Delete(pid)
	h.pool.UnmarkStamped(pid)
}

func (h *Heap) ownedList(tok *btree.Owner) *ownedPages {
	if v, ok := h.owned.Load(tok); ok {
		return v.(*ownedPages)
	}
	v, _ := h.owned.LoadOrStore(tok, &ownedPages{})
	return v.(*ownedPages)
}

// StampOwner returns the token a page is stamped with, or nil.
func (h *Heap) StampOwner(pid page.ID) *btree.Owner {
	if v, ok := h.stamps.Load(pid); ok {
		return v.(*btree.Owner)
	}
	return nil
}

// StampedPages reports how many pages currently carry an owner stamp.
func (h *Heap) StampedPages() int {
	n := 0
	h.owned.Range(func(_, v any) bool {
		op := v.(*ownedPages)
		op.mu.Lock()
		n += len(op.pages)
		op.mu.Unlock()
		return true
	})
	return n
}

// GetOwned returns a copy of the record at rid. tok identifies the
// calling partition worker (nil for shared sessions): when the record's
// page is stamped to tok the read is latch-free — the caller IS the one
// thread allowed to mutate that page, so pinning suffices. All other
// reads take the shared frame latch as before.
func (h *Heap) GetOwned(tok *btree.Owner, rid RID) ([]byte, error) {
	f, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	if tok != nil {
		h.OwnedReads.Inc()
		// Loading: the frame is mid-disk-read (some latched reader's
		// miss); fall back to the latched path, which waits for it.
		if h.StampOwner(rid.Page) == tok && !f.Loading() {
			b, err := f.Page.Get(int(rid.Slot))
			var out []byte
			if err == nil {
				out = append([]byte(nil), b...)
			}
			h.pool.Unpin(f, false)
			return out, err
		}
		h.OwnedReadsLatched.Inc()
	}
	if cs := h.pool.Stats(); cs != nil {
		cs.FrameLatch.Inc()
	}
	f.Latch.RLock()
	b, err := f.Page.Get(int(rid.Slot))
	var out []byte
	if err == nil {
		out = append([]byte(nil), b...)
	}
	f.Latch.RUnlock()
	h.pool.Unpin(f, false)
	return out, err
}

// InsertOwnedWith is InsertWith targeting the token's private page list:
// the record lands on a page stamped to tok (stamping a fresh page when
// the fill target is exhausted), so the owner's later reads of it are
// latch-free from the start. With a nil token it falls back to the
// shared striped path. Must be called on the owning worker's thread.
func (h *Heap) InsertOwnedWith(tok *btree.Owner, worker int, rec []byte, mkLSN func(RID) uint64) (RID, error) {
	if tok == nil {
		return h.InsertWith(worker, rec, mkLSN)
	}
	if len(rec) > page.Size-page.HeaderSize-8 {
		return RID{}, ErrRecordTooLarge
	}
	op := h.ownedList(tok)
	op.mu.Lock()
	var hint page.ID
	hasHint := len(op.pages) > 0
	if hasHint {
		hint = op.pages[op.fill]
	}
	op.mu.Unlock()
	if hasHint {
		rid, ok, err := h.tryInsertWith(hint, tok, rec, mkLSN)
		if err != nil {
			return RID{}, err
		}
		if ok {
			return rid, nil
		}
	}
	f, err := h.pool.NewPage()
	if err != nil {
		return RID{}, err
	}
	// Fresh page: one latched insert per page lifetime (amortized to ~0
	// per write), counted like any other latched owner mutation.
	h.OwnedWrites.Inc()
	h.OwnedWritesLatched.Inc()
	h.noteLatchedWrite()
	f.Latch.Lock()
	f.BumpWriteSeq()
	slot, err := f.Page.Insert(rec)
	if err != nil {
		f.Latch.Unlock()
		h.pool.Unpin(f, false)
		return RID{}, err
	}
	rid := RID{Page: f.ID(), Slot: uint16(slot)}
	if lsn := mkLSN(rid); lsn != 0 {
		f.Page.SetLSN(lsn)
	}
	f.MarkDirty()
	// Stamp before the page becomes discoverable (the caller publishes
	// the RID through an index only after we return); the fresh page
	// never enters the shared stripes, so no foreign insert can target it.
	h.setStamp(rid.Page, tok)
	f.Latch.Unlock()
	h.pool.Unpin(f, true)

	op.mu.Lock()
	op.pages = append(op.pages, rid.Page)
	op.fill = len(op.pages) - 1
	op.mu.Unlock()
	return rid, nil
}

// TryStamp re-stamps an existing shared page to tok without moving any
// data, when every live record on it satisfies mine (the caller's
// "belongs to my claimed ranges" predicate over raw record images). The
// protocol closes the race with in-flight fill-hint inserts:
//
//  1. pull the page out of the shared stripes — no new fill hint can
//     select it;
//  2. publish the stamp — tryInsertWith re-checks it under the frame
//     latch, so any insert that latches after this point backs off;
//  3. verify the contents under the frame latch — the latch is the
//     barrier for inserts that slipped in before step 2; a foreign
//     record fails the verify and the stamp is rolled back.
//
// The verify takes the latch EXCLUSIVELY, although it only reads: a
// latched write-back (flush of a then-unstamped page) that re-checks the
// stamp under its shared hold must be able to conclude that "unstamped
// under my latch" means no latch-free owner mutation can start until it
// releases — which holds exactly because the freshly published stamp
// cannot clear this verify while any latch is held.
//
// Must be called on the owning worker's thread. Returns false when the
// page holds foreign records (the caller migrates its records off it
// instead) or is already stamped to another owner.
func (h *Heap) TryStamp(pid page.ID, tok *btree.Owner, mine func(rec []byte) bool) (bool, error) {
	if cur := h.StampOwner(pid); cur != nil {
		return cur == tok, nil
	}
	h.unstripe(pid)
	h.setStamp(pid, tok)
	f, err := h.pool.Fetch(pid)
	if err != nil {
		h.clearStamp(pid)
		h.AttachPage(pid)
		return false, err
	}
	f.Latch.Lock()
	ok := true
	for s := 0; s < f.Page.NumSlots(); s++ {
		if f.Page.Deleted(s) {
			continue
		}
		b, err := f.Page.Get(s)
		if err != nil || !mine(b) {
			ok = false
			break
		}
	}
	f.Latch.Unlock()
	h.pool.Unpin(f, false)
	if !ok {
		h.clearStamp(pid)
		h.AttachPage(pid)
		return false, nil
	}
	op := h.ownedList(tok)
	op.mu.Lock()
	op.pages = append(op.pages, pid)
	op.mu.Unlock()
	return true, nil
}

// UnstampPages strips tok's stamp from the given pages and returns them
// to the shared striped path (partition split: records in the moved
// interval may live on them, so tok's exclusivity promise no longer
// holds). Must be called on the owning worker's thread, so none of its
// latch-free reads are in flight.
func (h *Heap) UnstampPages(tok *btree.Owner, pids []page.ID) {
	if len(pids) == 0 {
		return
	}
	drop := make(map[page.ID]bool, len(pids))
	for _, pid := range pids {
		if h.StampOwner(pid) == tok {
			drop[pid] = true
		}
	}
	if len(drop) == 0 {
		return
	}
	op := h.ownedList(tok)
	op.mu.Lock()
	kept := op.pages[:0]
	for _, p := range op.pages {
		if drop[p] {
			continue
		}
		kept = append(kept, p)
	}
	op.pages = kept
	if op.fill >= len(op.pages) {
		op.fill = 0
	}
	op.mu.Unlock()
	for pid := range drop {
		h.clearStamp(pid)
		h.AttachPage(pid)
	}
}

// ReassignStamps re-points every page stamped to from at to (partition
// merge: the adopting worker takes the retiring worker's ranges — and
// therefore its exclusivity promise — wholesale). Must be called on the
// retiring worker's thread.
func (h *Heap) ReassignStamps(from, to *btree.Owner) {
	src := h.ownedList(from)
	src.mu.Lock()
	moved := src.pages
	src.pages = nil
	src.fill = 0
	src.mu.Unlock()
	if len(moved) == 0 {
		return
	}
	for _, pid := range moved {
		h.stamps.Store(pid, to)
	}
	dst := h.ownedList(to)
	dst.mu.Lock()
	dst.pages = append(dst.pages, moved...)
	if dst.fill >= len(dst.pages) {
		dst.fill = 0
	}
	dst.mu.Unlock()
}

// ReleaseStamps drops every stamp and returns all owned pages to the
// shared striped path (engine shutdown; re-partitioning on a new field).
// Requires a quiesced heap: no owner-thread reads in flight.
func (h *Heap) ReleaseStamps() {
	h.owned.Range(func(k, v any) bool {
		op := v.(*ownedPages)
		op.mu.Lock()
		pages := op.pages
		op.pages = nil
		op.fill = 0
		op.mu.Unlock()
		for _, pid := range pages {
			h.clearStamp(pid)
			h.AttachPage(pid)
		}
		h.owned.Delete(k)
		return true
	})
}

// unstripe removes pid from whichever shared stripe holds it, so no
// fill hint can select it anymore.
func (h *Heap) unstripe(pid page.ID) {
	for i := range h.stripes {
		st := &h.stripes[i]
		st.mu.Lock()
		for j, p := range st.pages {
			if p == pid {
				st.pages = append(st.pages[:j], st.pages[j+1:]...)
				if st.fillHint >= len(st.pages) {
					st.fillHint = 0
				}
				st.mu.Unlock()
				return
			}
		}
		st.mu.Unlock()
	}
}
